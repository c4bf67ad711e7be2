package rtw

import (
	"context"
	"math"
	"testing"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hyperspace"
	"repro/internal/noise"
	"repro/internal/rng"
	"repro/internal/solver"
)

// solve runs the registry's rtw engine on f.
func solve(t testing.TB, f *cnf.Formula, cfg solver.Config) solver.Result {
	t.Helper()
	s, err := solver.NewWith("rtw", cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Solve(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// repeat returns k copies of f's clauses over f's variables.
func repeat(f *cnf.Formula, k int) *cnf.Formula {
	out := cnf.New(f.NumVars)
	for i := 0; i < k; i++ {
		for _, c := range f.Clauses {
			out.Clauses = append(out.Clauses, append(cnf.Clause(nil), c...))
		}
	}
	return out
}

// widened returns RandomKSAT(5, 8, 3), whose |S_N| bound is exactly 53
// bits, and a copy with one clause widened to four literals: 54 bits at
// the same (n, m).
func widened() (narrow, wide *cnf.Formula) {
	narrow = gen.RandomKSAT(rng.New(5), 5, 8, 3)
	wide = narrow.Clone()
	in := map[cnf.Var]bool{}
	for _, l := range wide.Clauses[0] {
		in[l.Var()] = true
	}
	for v := cnf.Var(1); ; v++ {
		if !in[v] {
			wide.Clauses[0] = append(wide.Clauses[0], cnf.Pos(v))
			return narrow, wide
		}
	}
}

func TestCheckDecisions(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    *cnf.Formula
		want solver.Status
	}{
		{"Example6", gen.PaperExample6(), solver.StatusSat},
		{"Example7", gen.PaperExample7(), solver.StatusUnsat},
		{"S_SAT", gen.PaperSAT(), solver.StatusSat},
		{"S_UNSAT", gen.PaperUNSAT(), solver.StatusUnsat},
	} {
		// 1M samples clear the Section III-F budget an UNSAT verdict on
		// n·m = 8 needs (589,825).
		if r := solve(t, tc.f, solver.Config{Seed: 7, MaxSamples: 1_000_000}); r.Status != tc.want {
			t.Errorf("%s: got %v, want %v (%+v)", tc.name, r.Status, tc.want, r.Stats)
		}
	}
}

func TestMeanConvergesToWeightedCount(t *testing.T) {
	// RTW sources have sigma^2 = 1, so mean(S_N) -> K' = 2 on Example 6.
	r := solve(t, gen.PaperExample6(), solver.Config{Seed: 3, MaxSamples: 400_000})
	if math.Abs(r.Stats.Mean-2) > 0.2 {
		t.Errorf("mean = %v, want ~2", r.Stats.Mean)
	}
}

// TestSamplesAreIntegers pins the premise of the narrow path: up to 53
// bits every S_N sample of the float sampler over ±1 sources is an
// integer within the widthBits bound, so float64 loses nothing there.
func TestSamplesAreIntegers(t *testing.T) {
	narrow, _ := widened()
	for _, f := range []*cnf.Formula{gen.PaperSAT(), gen.PaperExample5(), narrow} {
		width, err := widthBits(f)
		if err != nil || width > exactBits {
			t.Fatalf("%s: width %d (%v), want at most %d", f, width, err, exactBits)
		}
		bound := math.Ldexp(1, width)
		ev := hyperspace.New(f, noise.NewBank(noise.RTW, 9, f.NumVars, f.NumClauses()))
		out := make([]float64, 256)
		for base := uint64(0); base < 4096; base += uint64(len(out)) {
			ev.StepBlockAt(base, out)
			for s, x := range out {
				if x != math.Trunc(x) || math.Abs(x) > bound {
					t.Fatalf("%s sample %d: %v is not an integer within 2^%d", f, base+uint64(s), x, width)
				}
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(cnf.New(0), core.Options{Seed: 1}); err == nil {
		t.Error("zero variables accepted")
	}
	if _, err := New(cnf.New(2), core.Options{Seed: 1}); err == nil {
		t.Error("zero clauses accepted")
	}
	f := cnf.New(2)
	f.Clauses = append(f.Clauses, cnf.Clause{})
	if _, err := New(f, core.Options{Seed: 1}); err == nil {
		t.Error("empty clause accepted")
	}
	// A formula with huge n·m builds: it selects the exact wide kernel.
	big := cnf.New(64)
	for j := 0; j < 64; j++ {
		big.Add(j%64+1, -(((j + 1) % 64) + 1))
	}
	e, err := New(big, core.Options{Seed: 1})
	if err != nil {
		t.Errorf("overflow-prone instance must take the wide kernel, got %v", err)
	} else if !e.wide {
		t.Error("overflow-prone instance should be on the wide kernel")
	}
}

// TestResetCrossesKernelBoundary pins the kernel choice at one (n, m):
// 53 bits runs the shared sampler, 54 the wide kernel, and Reset
// re-picks it from the clause widths in both directions.
func TestResetCrossesKernelBoundary(t *testing.T) {
	narrow, wide := widened()
	for f, want := range map[*cnf.Formula]int{narrow: exactBits, wide: exactBits + 1} {
		if got, _ := widthBits(f); got != want {
			t.Fatalf("%s: width %d, want %d", f, got, want)
		}
	}
	e, err := New(narrow, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range []*cnf.Formula{wide, narrow, wide} {
		if err := e.Reset(f, 1); err != nil {
			t.Fatal(err)
		}
		if e.wide != (f == wide) {
			t.Fatalf("reset %d: wide = %v on %s", i, e.wide, f)
		}
	}
}

// TestZeroVarianceUnsatStaysUnsat sweeps tiny budgets over UNSAT
// formulas: no seed may read SAT. A few samples that agree have no
// variance, and without a stderr there is no z-score to clear theta.
// The wide formula's samples lie in {-2, 0, 2}, so three of them
// cannot reach z > 4 either; the narrow ones draw a whole convergence
// round at any budget.
func TestZeroVarianceUnsatStaysUnsat(t *testing.T) {
	contradiction := repeat(cnf.FromClauses([]int{1}, []int{-1}), 35) // n = 1, 71 bits
	for _, tc := range []struct {
		name    string
		f       *cnf.Formula
		budgets []int64
	}{
		{"contradiction x35", contradiction, []int64{1, 2, 3}},
		{"Example7", gen.PaperExample7(), []int64{1}},
		{"S_UNSAT", gen.PaperUNSAT(), []int64{1}},
	} {
		for _, budget := range tc.budgets {
			for seed := uint64(1); seed <= 200; seed++ {
				r := solve(t, tc.f, solver.Config{Seed: seed, MaxSamples: budget})
				if r.Status == solver.StatusSat {
					t.Errorf("%s seed %d budget %d: SAT from %+v", tc.name, seed, budget, r.Stats)
				}
			}
		}
	}
}
