package core

import (
	"errors"
	"math"
	"math/big"
	"slices"
	"testing"

	"repro/internal/cnf"
	"repro/internal/count"
	"repro/internal/gen"
	"repro/internal/noise"
	"repro/internal/rng"
)

// testOpts returns fast, deterministic options adequate for the small
// instances used in tests (n·m <= 8 or so).
func testOpts(seed uint64) Options {
	return Options{
		Family:     noise.UniformUnit,
		Seed:       seed,
		MaxSamples: 600_000,
		MinSamples: 50_000,
		CheckEvery: 50_000,
		Theta:      4,
	}
}

func mustEngine(t *testing.T, f *cnf.Formula, o Options) *Engine {
	t.Helper()
	e, err := NewEngine(f, o)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestCheckPaperExamples6And7(t *testing.T) {
	// E2: the single-operation SAT check on the worked examples.
	sat := mustEngine(t, gen.PaperExample6(), testOpts(1)).Check()
	if !sat.Satisfiable {
		t.Errorf("Example 6 should check SAT: %v", sat)
	}
	unsat := mustEngine(t, gen.PaperExample7(), testOpts(2)).Check()
	if unsat.Satisfiable {
		t.Errorf("Example 7 should check UNSAT: %v", unsat)
	}
}

func TestCheckFigure1Instances(t *testing.T) {
	// E1: the Section IV instances (n=2, m=4).
	o := testOpts(3)
	o.MaxSamples = 2_000_000
	if r := mustEngine(t, gen.PaperSAT(), o).Check(); !r.Satisfiable {
		t.Errorf("S_SAT misclassified: %v", r)
	}
	if r := mustEngine(t, gen.PaperUNSAT(), o).Check(); r.Satisfiable {
		t.Errorf("S_UNSAT misclassified: %v", r)
	}
}

func TestCheckAllFamilies(t *testing.T) {
	// E6: every source family must make the same decisions.
	for _, fam := range []noise.Family{
		noise.UniformHalf, noise.UniformUnit, noise.Gaussian, noise.RTW,
	} {
		o := testOpts(4)
		o.Family = fam
		if r := mustEngine(t, gen.PaperExample6(), o).Check(); !r.Satisfiable {
			t.Errorf("%v: Example 6 misclassified: %v", fam, r)
		}
		if r := mustEngine(t, gen.PaperExample7(), o).Check(); r.Satisfiable {
			t.Errorf("%v: Example 7 misclassified: %v", fam, r)
		}
	}
}

func TestMeanConvergesToExactPrediction(t *testing.T) {
	// The MC mean must approach E[S_N] = K'·sigma^(2nm).
	for _, tc := range []struct {
		name string
		f    *cnf.Formula
		fam  noise.Family
	}{
		{"Example6/unit", gen.PaperExample6(), noise.UniformUnit},
		{"Example6/half", gen.PaperExample6(), noise.UniformHalf},
		{"SSAT/unit", gen.PaperSAT(), noise.UniformUnit},
	} {
		o := testOpts(5)
		o.Family = tc.fam
		o.MaxSamples = 2_000_000
		e := mustEngine(t, tc.f, o)
		r := e.Check()
		want := ExactMean(tc.f, cnf.NewAssignment(tc.f.NumVars), tc.fam)
		if want <= 0 {
			t.Fatalf("%s: exact mean %v not positive", tc.name, want)
		}
		if math.Abs(r.Mean-want) > 0.35*want {
			t.Errorf("%s: MC mean %v vs exact %v (err > 35%%)", tc.name, r.Mean, want)
		}
	}
}

func TestCheckBoundReducedHyperspace(t *testing.T) {
	// Example 8's first iteration: bind x1=1 in Example 6. The reduced
	// instance is still satisfiable (x1=1, x2=0 works).
	f := gen.PaperExample6()
	for _, fam := range []noise.Family{noise.UniformUnit, noise.RTW} {
		o := testOpts(6)
		o.Family = fam
		e := mustEngine(t, f, o)
		bound := cnf.NewAssignment(2)
		bound.Set(1, cnf.True)
		if r := e.CheckBound(bound); !r.Satisfiable {
			t.Errorf("%v: x1-subspace should be satisfiable: %v", fam, r)
		}
		// Binding both variables to the falsifying assignment (1,1) must
		// be unsatisfiable.
		bound.Set(2, cnf.True)
		if r := e.CheckBound(bound); r.Satisfiable {
			t.Errorf("%v: x1·x2 subspace should be unsatisfiable: %v", fam, r)
		}
	}
}

func TestAssignPaperExample8(t *testing.T) {
	// E4: Algorithm 2 on Example 6 must recover ExactAssign's model in
	// at most n+1 checks. Binding x1 = 1 forces x2 = 0 by unit
	// propagation, which leaves no clause: the Algorithm-1 check is the
	// only one sampled.
	f := gen.PaperExample6()
	e := mustEngine(t, f, testOpts(7))
	res, err := e.Assign()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Assignment.Satisfies(f) {
		t.Fatalf("assignment %s does not satisfy", res.Assignment)
	}
	if len(res.Checks) > f.NumVars+1 {
		t.Errorf("used %d checks, above n+1 = %d", len(res.Checks), f.NumVars+1)
	}
	if len(res.Checks) != 1 {
		t.Errorf("used %d checks, want 1: propagation decides both bindings", len(res.Checks))
	}
	if want, _ := ExactAssign(f); !slices.Equal(res.Assignment, want) {
		t.Errorf("model %s, ExactAssign's is %s", res.Assignment, want)
	}
}

// residualFormula is (x1+x2+x3)(!x1+x2+!x3)(x1+!x2+x3): binding x1 = 1
// leaves the residual (x2+!x3), which propagation cannot decide.
func residualFormula() *cnf.Formula {
	return cnf.FromClauses([]int{1, 2, 3}, []int{-1, 2, -3}, []int{1, -2, 3})
}

func TestAssignSamplesConditionedResidual(t *testing.T) {
	f := residualFormula()
	e := mustEngine(t, f, testOpts(21))
	res, err := e.Assign()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Assignment.Satisfies(f) {
		t.Fatalf("assignment %s does not satisfy", res.Assignment)
	}
	if len(res.Checks) < 2 || len(res.Checks) > f.NumVars+1 {
		t.Fatalf("used %d checks, want a sampled reduced check and at most n+1 = %d",
			len(res.Checks), f.NumVars+1)
	}
	if want, _ := ExactAssign(f); !slices.Equal(res.Assignment, want) {
		t.Errorf("model %s, ExactAssign's is %s", res.Assignment, want)
	}
	// Each sampled check took the next seed of the engine's sequence,
	// and the residuals were sampled on scratch banks: the engine's own
	// bank still has the formula's geometry.
	if e.checkSeq != uint64(len(res.Checks)) {
		t.Errorf("check sequence at %d after %d checks", e.checkSeq, len(res.Checks))
	}
	if n, m := e.workers[0].bank.Dims(); n != f.NumVars || m != f.NumClauses() {
		t.Errorf("engine bank is %dx%d after Assign, want the formula's %dx%d",
			n, m, f.NumVars, f.NumClauses())
	}
}

func TestAssignOnUnsatReturnsErr(t *testing.T) {
	e := mustEngine(t, gen.PaperUNSAT(), func() Options {
		o := testOpts(8)
		o.MaxSamples = 2_000_000
		return o
	}())
	_, err := e.Assign()
	if !errors.Is(err, ErrUnsat) {
		t.Errorf("err = %v, want ErrUnsat", err)
	}
}

func TestAssignRandomSatisfiableInstances(t *testing.T) {
	// nm = 6 keeps the Section III-F SNR wall comfortably away from the
	// test's sample budget: SNR ~ K·sqrt(N)/(3·2^6).
	g := rng.New(99)
	for trial := 0; trial < 5; trial++ {
		f, _ := gen.PlantedKSAT(g, 3, 2, 2)
		o := testOpts(uint64(100 + trial))
		o.MaxSamples = 1_500_000
		e := mustEngine(t, f, o)
		res, err := e.Assign()
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, f, err)
		}
		if !res.Assignment.Satisfies(f) {
			t.Fatalf("trial %d: bad assignment %s for %s", trial, res.Assignment, f)
		}
	}
}

// TestUnsatBudgetFollowsRequiredSamples pins the Section III-F reach
// behind every sampling engine's UNSAT verdict: SNR 1 for one minterm
// at n·m = 8 takes 9·4^8 + 1 = 589,825 samples.
func TestUnsatBudgetFollowsRequiredSamples(t *testing.T) {
	if got := RequiredSamples(2, 4, 1, 1); got != 589_825 {
		t.Fatalf("RequiredSamples(2, 4, 1, 1) = %v, want 589825", got)
	}
	if UnsatBudgetAdequate(2, 4, 589_824) || !UnsatBudgetAdequate(2, 4, 589_825) {
		t.Error("UnsatBudgetAdequate must flip exactly at RequiredSamples")
	}
	if UnsatBudgetAdequate(20, 91, math.MaxInt64) {
		t.Error("uf20-91's reach overflows float64; no budget is adequate")
	}
}

func TestCubeExtractsDontCares(t *testing.T) {
	// f = (x1): x2 is a don't-care; the cube should be x1 alone.
	f := cnf.FromClauses([]int{1})
	f.NumVars = 2
	e := mustEngine(t, f, testOpts(11))
	res, err := e.Cube()
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment.Get(1) != cnf.True {
		t.Errorf("x1 should be bound true: %s", res.Assignment)
	}
	if res.Assignment.Get(2) != cnf.Unassigned {
		t.Errorf("x2 should be a don't-care: %s", res.Assignment)
	}
}

func TestCubeSoundOnXorLikeInstance(t *testing.T) {
	// (x1+x2)(!x1+!x2): the paper's literal rule would drop both
	// variables; the sound variant must return a real satisfying cube.
	e := mustEngine(t, gen.PaperExample6(), testOpts(12))
	res, err := e.Cube()
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment.Eval(e.f) != cnf.True {
		t.Errorf("cube %s does not cover all clauses", res.Assignment)
	}
}

func TestExactCheckMatchesModelCount(t *testing.T) {
	g := rng.New(7)
	for trial := 0; trial < 40; trial++ {
		n := 2 + g.Intn(5)
		m := 1 + g.Intn(3*n)
		f := gen.RandomKSAT(g, n, m, 1+g.Intn(min(3, n)))
		want := count.Brute(f) > 0
		if got := ExactCheck(f); got != want {
			t.Fatalf("trial %d: ExactCheck = %v, model count says %v\n%s",
				trial, got, want, f)
		}
	}
}

func TestExactAssignAlwaysSatisfies(t *testing.T) {
	g := rng.New(8)
	for trial := 0; trial < 40; trial++ {
		n := 2 + g.Intn(5)
		f := gen.RandomKSAT(g, n, 1+g.Intn(3*n), 1+g.Intn(min(3, n)))
		a, ok := ExactAssign(f)
		if ok != (count.Brute(f) > 0) {
			t.Fatalf("trial %d: satisfiability disagreement", trial)
		}
		if ok && !a.Satisfies(f) {
			t.Fatalf("trial %d: ExactAssign returned non-model %s for %s", trial, a, f)
		}
	}
}

func TestWeightedCountMatchesCountPackage(t *testing.T) {
	g := rng.New(9)
	unbound := func(n int) cnf.Assignment { return cnf.NewAssignment(n) }
	for trial := 0; trial < 30; trial++ {
		n := 2 + g.Intn(5)
		f := gen.RandomKSAT(g, n, 1+g.Intn(2*n), 1+g.Intn(min(3, n)))
		a := WeightedCount(f, unbound(n))
		b := count.WeightedBrute(f)
		if a.Cmp(b) != 0 {
			t.Fatalf("trial %d: WeightedCount=%s WeightedBrute=%s", trial, a, b)
		}
	}
}

func TestWeightedCountWithBindings(t *testing.T) {
	// Example 6 has models 10 and 01, each weight 1. Binding x1=1 keeps
	// only 10: K' = 1.
	f := gen.PaperExample6()
	bound := cnf.NewAssignment(2)
	bound.Set(1, cnf.True)
	if got := WeightedCount(f, bound); got.Cmp(big.NewInt(1)) != 0 {
		t.Errorf("K'(x1=1) = %s, want 1", got)
	}
	bound.Set(2, cnf.True)
	if got := WeightedCount(f, bound); got.Sign() != 0 {
		t.Errorf("K'(x1=1,x2=1) = %s, want 0", got)
	}
}

func TestParallelWorkersDecideIdentically(t *testing.T) {
	f := gen.PaperExample6()
	for _, workers := range []int{1, 2, 4} {
		o := testOpts(13)
		o.Workers = workers
		r := mustEngine(t, f, o).Check()
		if !r.Satisfiable {
			t.Errorf("workers=%d: misclassified: %v", workers, r)
		}
	}
}

func TestParallelDeterminismSameWorkerCount(t *testing.T) {
	o := testOpts(14)
	o.Workers = 4
	a := mustEngine(t, gen.PaperExample6(), o).Check()
	b := mustEngine(t, gen.PaperExample6(), o).Check()
	if a.Mean != b.Mean || a.Samples != b.Samples {
		t.Errorf("same options should reproduce: %v vs %v", a, b)
	}
}

func TestEngineChecksUseFreshStreams(t *testing.T) {
	// Two consecutive checks on one engine must not reuse noise (their
	// means should differ while agreeing on the decision).
	e := mustEngine(t, gen.PaperExample6(), testOpts(15))
	a, b := e.Check(), e.Check()
	if a.Mean == b.Mean {
		t.Error("consecutive checks reused the same noise streams")
	}
	if a.Satisfiable != b.Satisfiable {
		t.Error("consecutive checks disagree on decision")
	}
}

func TestMeanTraceShape(t *testing.T) {
	e := mustEngine(t, gen.PaperSAT(), testOpts(16))
	trace := e.MeanTrace(1000, 10_000)
	if len(trace) != 10 {
		t.Fatalf("trace has %d points, want 10", len(trace))
	}
	for i, p := range trace {
		if p.Samples != int64(1000*(i+1)) {
			t.Errorf("point %d at %d samples", i, p.Samples)
		}
	}
}

func TestDegenerateFormulas(t *testing.T) {
	// No clauses: trivially SAT.
	f := cnf.New(2)
	e := mustEngine(t, f, testOpts(17))
	if r := e.Check(); !r.Satisfiable {
		t.Error("empty formula should be SAT")
	}
	// Empty clause: structurally UNSAT.
	g := cnf.New(2)
	g.Clauses = append(g.Clauses, cnf.Clause{})
	e2 := mustEngine(t, g, testOpts(18))
	if r := e2.Check(); r.Satisfiable {
		t.Error("empty clause should be UNSAT")
	}
	// Zero variables: constructor error.
	if _, err := NewEngine(cnf.New(0), testOpts(19)); !errors.Is(err, ErrNoVariables) {
		t.Errorf("err = %v, want ErrNoVariables", err)
	}
}

func TestNewEngineValidates(t *testing.T) {
	f := cnf.New(1)
	f.Clauses = append(f.Clauses, cnf.Clause{cnf.Pos(5)}) // out of range
	if _, err := NewEngine(f, testOpts(20)); err == nil {
		t.Error("invalid formula accepted")
	}
}

func TestResultString(t *testing.T) {
	r := Result{Satisfiable: true, Mean: 1.5, StdErr: 0.1, ZScore: 15, Samples: 1000}
	if s := r.String(); s == "" || s[:3] != "SAT" {
		t.Errorf("String() = %q", s)
	}
	u := Result{}
	if s := u.String(); s[:5] != "UNSAT" {
		t.Errorf("String() = %q", s)
	}
}

func TestOptionsDefaults(t *testing.T) {
	e := mustEngine(t, gen.PaperExample6(), Options{})
	o := e.Options()
	if o.MaxSamples != 4_000_000 || o.Theta != 4 || o.Workers != 1 {
		t.Errorf("unexpected defaults: %+v", o)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
