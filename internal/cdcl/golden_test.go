package cdcl

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/cnf"
	"repro/internal/rng"
)

// scattered returns a random 3-SAT formula over n variables with m/n
// between 3.5 and 5, literals drawn with replacement (so a clause can
// repeat a literal) and one clause in ten made tautological, whose
// variables are renamed into 1..n+unused by a random permutation, so
// the unused declared variables fall anywhere in the range.
func scattered(g *rng.Xoshiro256, n, unused int) *cnf.Formula {
	perm := g.Perm(n + unused)
	f := cnf.New(n + unused)
	for range 7*n/2 + g.Intn(3*n/2+1) {
		cl := cnf.Clause{}
		for range 3 {
			cl = append(cl, cnf.NewLit(cnf.Var(perm[g.Intn(n)]+1), g.Bool()))
		}
		if g.Intn(10) == 0 {
			cl = append(cl, cl[0].Negate())
		}
		f.Clauses = append(f.Clauses, cl)
	}
	return f
}

// TestSearchGolden pins the search itself: on 3,000 seeded formulas
// with up to 49 unused declared variables, the verdict, every value of
// the model and all five counters hash to a sum recorded before the
// solver's arrays were sized by the variables that occur. Branching and
// learning break ties by variable name, so a renaming that keeps the
// order of the names must leave every number here unchanged.
func TestSearchGolden(t *testing.T) {
	const want = "2af6e6a5f19e0348e2c272041335993e9af75226bee05324ccaddc5ed04ce260"
	g := rng.New(32)
	h := sha256.New()
	for range 3000 {
		f := scattered(g, 4+g.Intn(60), g.Intn(50))
		s := New(f)
		a, ok := s.Solve()
		fmt.Fprintf(h, "%v %v %+v\n", ok, a, s.Stats())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("search sum %s, want %s", got, want)
	}
}
