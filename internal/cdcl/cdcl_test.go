package cdcl

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/count"
	"repro/internal/dpll"
	"repro/internal/gen"
	"repro/internal/rng"
)

func TestSolvePaperInstances(t *testing.T) {
	cases := []struct {
		name string
		f    *cnf.Formula
		sat  bool
	}{
		{"S_SAT", gen.PaperSAT(), true},
		{"S_UNSAT", gen.PaperUNSAT(), false},
		{"Example5", gen.PaperExample5(), true},
		{"Example6", gen.PaperExample6(), true},
		{"Example7", gen.PaperExample7(), false},
	}
	for _, c := range cases {
		a, ok := Solve(c.f)
		if ok != c.sat {
			t.Errorf("%s: ok = %v, want %v", c.name, ok, c.sat)
		}
		if ok && !a.Satisfies(c.f) {
			t.Errorf("%s: returned non-model %s", c.name, a)
		}
	}
}

func TestSolveAgainstModelCountSmall(t *testing.T) {
	g := rng.New(41)
	for trial := 0; trial < 120; trial++ {
		n := 2 + g.Intn(8)
		m := 1 + g.Intn(5*n)
		k := 1 + g.Intn(minInt(3, n))
		f := gen.RandomKSAT(g, n, m, k)
		want := count.Brute(f) > 0
		a, ok := Solve(f)
		if ok != want {
			t.Fatalf("trial %d: CDCL=%v oracle=%v\n%s", trial, ok, want, f)
		}
		if ok && !a.Satisfies(f) {
			t.Fatalf("trial %d: non-model returned", trial)
		}
	}
}

func TestSolveAgreesWithDPLLMedium(t *testing.T) {
	// Larger instances than brute force can oracle: cross-check two
	// independent complete solvers against each other.
	g := rng.New(43)
	for trial := 0; trial < 15; trial++ {
		f := gen.RandomKSAT(g, 30, 120, 3)
		_, okC := Solve(f)
		_, okD := dpll.Solve(f)
		if okC != okD {
			t.Fatalf("trial %d: CDCL=%v DPLL=%v", trial, okC, okD)
		}
	}
}

func TestSolvePigeonhole(t *testing.T) {
	for holes := 1; holes <= 5; holes++ {
		s := New(gen.Pigeonhole(holes))
		if _, ok := s.Solve(); ok {
			t.Errorf("PHP(%d) reported SAT", holes)
		}
	}
}

func TestClauseLearningHappens(t *testing.T) {
	s := New(gen.Pigeonhole(4))
	if _, ok := s.Solve(); ok {
		t.Fatal("PHP(4) is UNSAT")
	}
	st := s.Stats()
	if st.Conflicts == 0 || st.Learned == 0 {
		t.Errorf("expected conflicts and learned clauses: %+v", st)
	}
}

func TestRestartsTrigger(t *testing.T) {
	// A hard-enough UNSAT instance should cross the first Luby restart
	// threshold (100 conflicts).
	s := New(gen.Pigeonhole(5))
	if _, ok := s.Solve(); ok {
		t.Fatal("PHP(5) is UNSAT")
	}
	if s.Stats().Conflicts > 200 && s.Stats().Restarts == 0 {
		t.Errorf("no restarts after %d conflicts", s.Stats().Conflicts)
	}
}

func TestPlantedLargeInstance(t *testing.T) {
	g := rng.New(47)
	f, _ := gen.PlantedKSAT(g, 100, 400, 3)
	a, ok := Solve(f)
	if !ok {
		t.Fatal("planted instance must be SAT")
	}
	if !a.Satisfies(f) {
		t.Fatal("non-model returned")
	}
}

func TestTrivialCases(t *testing.T) {
	// Empty formula.
	a, ok := Solve(cnf.New(2))
	if !ok || !a.Total() {
		t.Error("empty formula should be SAT with a total assignment")
	}
	// Empty clause.
	f := cnf.New(1)
	f.Clauses = append(f.Clauses, cnf.Clause{})
	if _, ok := Solve(f); ok {
		t.Error("empty clause must be UNSAT")
	}
	// Contradictory units.
	if _, ok := Solve(cnf.FromClauses([]int{1}, []int{-1})); ok {
		t.Error("(x1)(!x1) must be UNSAT")
	}
	// Tautology-only.
	if _, ok := Solve(cnf.FromClauses([]int{1, -1})); !ok {
		t.Error("tautology must be SAT")
	}
	// Duplicate literals.
	if a, ok := Solve(cnf.FromClauses([]int{2, 2, 2})); !ok || a.Get(2) != cnf.True {
		t.Error("(x2+x2+x2) must force x2")
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func BenchmarkCDCLRandom3SATn50(b *testing.B) {
	g := rng.New(1)
	f := gen.RandomKSAT(g, 50, 210, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Solve(f)
	}
}

// TestUnusedVariablesAreNotDecided: a variable in no clause is never
// branched on, so a short body declaring many variables solves in time
// linear in them, with the model that deciding each one False would
// give.
func TestUnusedVariablesAreNotDecided(t *testing.T) {
	const n = 200_000
	f := &cnf.Formula{NumVars: n, Clauses: []cnf.Clause{{cnf.Pos(1)}}}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	s := New(f)
	a, ok, err := s.SolveCtx(ctx)
	if err != nil || !ok {
		t.Fatalf("p cnf %d 1 / 1 0: ok %v, err %v", n, ok, err)
	}
	want := cnf.NewAssignment(n)
	for v := 1; v <= n; v++ {
		want.Set(cnf.Var(v), cnf.False)
	}
	want.Set(1, cnf.True)
	if !slices.Equal(a, want) {
		t.Error("model differs from x1 true, every other variable false")
	}
	if d := s.Stats().Decisions; d != 0 {
		t.Errorf("%d decisions, want 0", d)
	}
}

// TestAllocationFollowsTheClauses: the solver's arrays are sized by
// the variables that occur, so a body that declares 4,000,000
// variables and mentions one allocates little beyond its 4 MB model.
// Sized by the declared count, the same solve allocated 255.6 MiB.
func TestAllocationFollowsTheClauses(t *testing.T) {
	f := &cnf.Formula{NumVars: 4_000_000, Clauses: []cnf.Clause{{cnf.Pos(1)}}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, ok := Solve(f)
	runtime.ReadMemStats(&after)
	if !ok || a.Get(1) != cnf.True || a.Get(4_000_000) != cnf.False {
		t.Fatalf("p cnf 4000000 1 / 1 0: ok %v", ok)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<20 {
		t.Errorf("solve allocated %.1f MiB, want under 16", float64(got)/(1<<20))
	}
}
