package cnf_test

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/rng"
)

// underDeclared returns clauses over 50 variables named up to 100,
// led by a duplicate x5 and a tautology x5 + !x5.
func underDeclared() []cnf.Clause {
	f := cnf.FromClauses([]int{5, 9, 5}, []int{9, -5, 12, 5}, []int{-12, 3, 3, 100})
	for i := range 60 {
		f.Add(i*7%50+1, -(i*13%50 + 1), i*29%50+1)
	}
	return f.Clauses
}

// TestRenamingOutgrowsNumVars holds DenseLits, Formula.Simplify and
// Canonicalize to first-occurrence numbering on formulas whose literals
// name more variables than NumVars declares, or whose NumVars is 0
// (unknown): each finishes with the output a correct declaration gives.
// A name below 1, which no declaration bounds, is covered too.
func TestRenamingOutgrowsNumVars(t *testing.T) {
	for _, clauses := range [][]cnf.Clause{
		underDeclared(),
		append(underDeclared(), cnf.Clause{cnf.NewLit(0, true), cnf.NewLit(7, false)}),
	} {
		// The reference: numbering and clean-up straight from the
		// definitions, by map.
		ids := map[cnf.Var]int32{}
		var wantVars []cnf.Var
		var wantLits []int32
		var wantClauses []cnf.Clause
		for _, c := range clauses {
			var kept cnf.Clause
			taut := false
			for _, l := range c {
				if _, ok := ids[l.Var()]; !ok {
					ids[l.Var()] = int32(len(wantVars))
					wantVars = append(wantVars, l.Var())
				}
				wantLits = append(wantLits, ids[l.Var()]<<1|int32(l&1))
				taut = taut || c.Contains(l.Negate())
				if !kept.Contains(l) {
					kept = append(kept, l)
				}
			}
			if !taut {
				wantClauses = append(wantClauses, kept)
			}
		}
		declared := cnf.Canonicalize(&cnf.Formula{NumVars: 100, Clauses: clauses})

		for _, numVars := range []int{0, 1, 2, 49, 100, 1 << 20} {
			f := &cnf.Formula{NumVars: numVars, Clauses: clauses}
			lits, vars := f.DenseLits()
			if !slices.Equal(lits, wantLits) || !slices.Equal(vars, wantVars) {
				t.Errorf("NumVars %d: DenseLits numbers %v as %v, want %v as %v", numVars, vars, lits, wantVars, wantLits)
			}
			g, hasEmpty := f.Simplify()
			if hasEmpty || !slices.EqualFunc(g.Clauses, wantClauses, slices.Equal) {
				t.Errorf("NumVars %d: Simplify gives %v (empty clause %v), want %v", numVars, g.Clauses, hasEmpty, wantClauses)
			}
			c := cnf.Canonicalize(f)
			if c.Fingerprint() != declared.Fingerprint() || !slices.Equal(c.ToOrig(), declared.ToOrig()) ||
				c.F.String() != declared.F.String() {
				t.Errorf("NumVars %d: Canonicalize gives %s over %v, want %s over %v",
					numVars, c.F, c.ToOrig(), declared.F, declared.ToOrig())
			}
		}
	}
}

// bytesPerCall returns the heap bytes fn allocates per call, averaged
// over runs calls after one warm-up call.
func bytesPerCall(runs int, fn func()) uint64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestRenamingTablesFollowVariables bounds what the front door
// allocates per request: the renaming tables are sized by the variables
// that occur, not by the literals that name them. A table sized by
// literals alone costs Canonicalize 45 KB on a planted 50/210 formula
// and DenseLits 49 KB on a five-block 150-variable, 1,800-literal
// union.
func TestRenamingTablesFollowVariables(t *testing.T) {
	g := rng.New(1)
	planted, _ := gen.PlantedKSAT(g, 50, 210, 3)
	blocks := make([]*cnf.Formula, 5)
	for b := range blocks {
		blocks[b], _ = gen.PlantedKSAT(g, 30, 120, 3)
	}
	union := gen.DisjointUnion(blocks...)
	if union.NumVars != 150 || union.NumLiterals() != 1800 {
		t.Fatalf("union has %d variables and %d literals, want 150 and 1800", union.NumVars, union.NumLiterals())
	}
	for _, c := range []struct {
		name  string
		fn    func()
		bound uint64
	}{
		{"Canonicalize of planted 50/210", func() { cnf.Canonicalize(planted) }, 32 << 10},
		{"DenseLits of a 5x30/120 union", func() { union.DenseLits() }, 16 << 10},
	} {
		if got := bytesPerCall(100, c.fn); got > c.bound {
			t.Errorf("%s allocates %d bytes per call, want at most %d", c.name, got, c.bound)
		}
	}
}
