package dpll

import (
	"testing"

	"repro/internal/cnf"
	"repro/internal/count"
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

func TestSolveAgainstModelCount(t *testing.T) {
	g := rng.New(21)
	for trial := 0; trial < 80; trial++ {
		n := 2 + g.Intn(8)
		m := 1 + g.Intn(4*n)
		k := 1 + g.Intn(minInt(3, n))
		f := gen.RandomKSAT(g, n, m, k)
		want := count.Brute(f) > 0
		a, ok := Solve(f)
		if ok != want {
			t.Fatalf("trial %d: DPLL=%v oracle=%v\n%s", trial, ok, want, f)
		}
		if ok && !a.Satisfies(f) {
			t.Fatalf("trial %d: non-model returned", trial)
		}
	}
}

func TestSolvePigeonhole(t *testing.T) {
	for holes := 1; holes <= 4; holes++ {
		if _, ok := Solve(gen.Pigeonhole(holes)); ok {
			t.Errorf("PHP(%d) reported SAT", holes)
		}
	}
}

func TestSolveAssignmentIsTotal(t *testing.T) {
	f := cnf.FromClauses([]int{1}) // x2, x3 unconstrained
	f.NumVars = 3
	a, ok := Solve(f)
	if !ok || !a.Total() {
		t.Errorf("assignment should be total: %s", a)
	}
}

func TestStatsCounted(t *testing.T) {
	s := New(gen.Pigeonhole(3), nil)
	if _, ok := s.Solve(); ok {
		t.Fatal("PHP(3) is UNSAT")
	}
	st := s.Stats()
	if st.Decisions == 0 || st.Backtracks == 0 {
		t.Errorf("expected nonzero effort on PHP(3): %+v", st)
	}
}

func TestUnitPropagationOnly(t *testing.T) {
	// A chain of implications solvable without any decision.
	f := cnf.FromClauses([]int{1}, []int{-1, 2}, []int{-2, 3})
	s := New(f, nil)
	a, ok := s.Solve()
	if !ok || !a.Satisfies(f) {
		t.Fatal("chain instance must be SAT")
	}
	if s.Stats().Decisions != 0 {
		t.Errorf("pure propagation should need 0 decisions, used %d", s.Stats().Decisions)
	}
}

func TestPureLiteralElimination(t *testing.T) {
	// x1 appears only positively: pure-literal sets it without branching.
	f := cnf.FromClauses([]int{1, 2}, []int{1, -2})
	s := New(f, nil)
	if _, ok := s.Solve(); !ok {
		t.Fatal("must be SAT")
	}
	if s.Stats().PureLiterals == 0 && s.Stats().Decisions > 0 {
		t.Errorf("expected pure-literal elimination: %+v", s.Stats())
	}
}

func TestEmptyFormula(t *testing.T) {
	a, ok := Solve(cnf.New(2))
	if !ok || !a.Total() {
		t.Error("empty formula over 2 vars should be SAT with total assignment")
	}
}

func TestEmptyClause(t *testing.T) {
	f := cnf.New(1)
	f.Clauses = append(f.Clauses, cnf.Clause{})
	if _, ok := Solve(f); ok {
		t.Error("empty clause must be UNSAT")
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
