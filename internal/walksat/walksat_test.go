package walksat

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/solver"
)

func TestSolvePaperSatInstances(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    *cnf.Formula
	}{
		{"S_SAT", gen.PaperSAT()},
		{"Example5", gen.PaperExample5()},
		{"Example6", gen.PaperExample6()},
	} {
		r := Solve(tc.f, Options{Seed: 1})
		if !r.Found {
			t.Errorf("%s: WalkSAT failed to find the model", tc.name)
			continue
		}
		if !r.Assignment.Satisfies(tc.f) {
			t.Errorf("%s: returned non-model %s", tc.name, r.Assignment)
		}
	}
}

func TestSolveUnsatReturnsUnknown(t *testing.T) {
	r := Solve(gen.PaperUNSAT(), Options{Seed: 2, MaxFlips: 200, Restarts: 3})
	if r.Found {
		t.Error("UNSAT instance cannot yield a model")
	}
	if r.Stats.Restarts != 3 {
		t.Errorf("restarts = %d, want 3", r.Stats.Restarts)
	}
}

func TestSolvePlantedInstances(t *testing.T) {
	g := rng.New(5)
	for trial := 0; trial < 10; trial++ {
		f, _ := gen.PlantedKSAT(g, 20, 70, 3)
		r := Solve(f, Options{Seed: uint64(trial)})
		if !r.Found {
			t.Errorf("trial %d: planted instance not solved", trial)
			continue
		}
		if !r.Assignment.Satisfies(f) {
			t.Errorf("trial %d: non-model", trial)
		}
	}
}

func TestDeterministicBySeed(t *testing.T) {
	f := gen.PaperExample6()
	a := Solve(f, Options{Seed: 7})
	b := Solve(f, Options{Seed: 7})
	if a.Found != b.Found || a.Stats != b.Stats {
		t.Error("same seed must reproduce the run")
	}
}

func TestTrivialCases(t *testing.T) {
	if r := Solve(cnf.New(3), Options{Seed: 1}); !r.Found {
		t.Error("formula with no clauses is trivially SAT")
	}
	f := cnf.New(1)
	f.Clauses = append(f.Clauses, cnf.Clause{})
	if r := Solve(f, Options{Seed: 1}); r.Found {
		t.Error("empty clause cannot be satisfied")
	}
	// p cnf 0 1 holding the empty clause: no variables does not make
	// it trivially satisfied.
	f = &cnf.Formula{Clauses: []cnf.Clause{{}}}
	if r := Solve(f, Options{Seed: 1}); r.Found {
		t.Error("empty clause over zero variables read as satisfied")
	}
}

func TestLiteralOutOfRangeIsAnError(t *testing.T) {
	f := cnf.New(2)
	f.Clauses = append(f.Clauses, cnf.Clause{cnf.Pos(1), cnf.Neg(9)}) // bypass AddClause growth
	if r, err := SolveCtx(context.Background(), f, Options{Seed: 1}); err == nil || r.Found {
		t.Errorf("SolveCtx = (%v, %v), want an error", r.Found, err)
	}
	s, err := solver.NewWith("walksat", solver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r, err := s.Solve(context.Background(), f); err == nil || r.Status != solver.StatusUnknown {
		t.Errorf("registry walksat = (%v, %v), want UNKNOWN with an error", r.Status, err)
	}
}

// TestIndexSizedByOccurringVars pins that the search state follows the
// literals a formula holds: on a header declaring 2,000,000 variables
// with a handful of (unsatisfiable) clauses, SolveCtx allocates one
// declared-size assignment, reused across its three restarts, and
// little else.
func TestIndexSizedByOccurringVars(t *testing.T) {
	const n = 2_000_000
	f := cnf.New(n)
	for _, c := range [][]int{{1, 7}, {1, -7}, {-1, 1_999_999}, {-1, -1_999_999}, {12, -7, 1}} {
		f.Add(c...)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := Solve(f, Options{Seed: 1, Restarts: 3, MaxFlips: 100})
	runtime.ReadMemStats(&after)
	if r.Found || r.Stats.Restarts != 3 {
		t.Fatalf("unsatisfiable formula: found %v, stats %+v", r.Found, r.Stats)
	}
	const slack = 64 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got > n+1+slack {
		t.Errorf("SolveCtx allocated %d bytes, want at most the %d-byte assignment + %d", got, n+1, slack)
	}
}

func TestFlipsAccounted(t *testing.T) {
	r := Solve(gen.PaperUNSAT(), Options{Seed: 9, MaxFlips: 50, Restarts: 2})
	if r.Stats.Flips != 100 {
		t.Errorf("flips = %d, want 100 (2 restarts x 50 flips)", r.Stats.Flips)
	}
}

func TestDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MaxFlips != 10_000 || o.Restarts != 10 || o.NoiseP != 0.5 {
		t.Errorf("unexpected defaults: %+v", o)
	}
}
