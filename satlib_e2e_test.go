package repro

import (
	"context"
	"os"
	"testing"
)

// readTestdata parses one of the SATLIB-dialect files under testdata/.
func readTestdata(t *testing.T, path string) *Formula {
	t.Helper()
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	f, err := ReadDIMACS(file)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return f
}

// TestSATLIBTrailerFileSolvesEndToEnd is the end-to-end regression for
// the SATLIB trailer bug: benchmark-dialect files (with the "%" / "0"
// trailer) must parse and solve through the public solver registry —
// before the fix they either failed the clause-count check or silently
// gained an empty clause and came back UNSAT.
func TestSATLIBTrailerFileSolvesEndToEnd(t *testing.T) {
	// A planted (known satisfiable) uf-style instance, solved by a
	// complete engine with model verification.
	uf8 := readTestdata(t, "testdata/uf8-satlib.cnf")
	if uf8.NumVars != 8 || uf8.NumClauses() != 24 {
		t.Fatalf("uf8 dims: %d vars %d clauses", uf8.NumVars, uf8.NumClauses())
	}
	for i, c := range uf8.Clauses {
		if len(c) == 0 {
			t.Fatalf("uf8 clause %d empty: trailer leaked into clause data", i)
		}
	}
	s, err := NewWith("cdcl", Config{FindModel: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background(), uf8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusSat {
		t.Fatalf("uf8 status %v, want SAT (planted instance)", res.Status)
	}
	if res.Assignment == nil || !res.Assignment.Satisfies(uf8) {
		t.Fatalf("cdcl model %v does not satisfy the instance", res.Assignment)
	}

	// The paper's own S_SAT in SATLIB dialect, decided by the default
	// NBL Monte-Carlo engine — the same path cmd/nblsat takes.
	paper := readTestdata(t, "testdata/paper-sat-satlib.cnf")
	mc, err := NewWith("mc", Config{Seed: 1, MaxSamples: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	res, err = mc.Solve(context.Background(), paper)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusSat {
		t.Fatalf("paper S_SAT via mc: status %v (stats %+v), want SAT", res.Status, res.Stats)
	}
}
