package hybrid

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/cnf"
	"repro/internal/dpll"
	"repro/internal/rng"
)

// goldenFormula returns a random 3-SAT formula over n variables,
// declared with up to 5 more, with m/n between 3 and 5, literals drawn
// with replacement and one clause in ten made tautological, plus up to
// two unit clauses: DPLL sees every clause as written, so units,
// repeated literals and tautologies all reach its propagation.
func goldenFormula(g *rng.Xoshiro256, n int) *cnf.Formula {
	f := cnf.New(n + g.Intn(6))
	for range g.Intn(3) {
		f.Clauses = append(f.Clauses, cnf.Clause{cnf.NewLit(cnf.Var(1+g.Intn(n)), g.Bool())})
	}
	for range 3*n + g.Intn(2*n+1) {
		cl := cnf.Clause{}
		for range 3 {
			cl = append(cl, cnf.NewLit(cnf.Var(1+g.Intn(n)), g.Bool()))
		}
		if g.Intn(10) == 0 {
			cl = append(cl, cl[0].Negate())
		}
		f.Clauses = append(f.Clauses, cl)
	}
	return f
}

// TestSearchGolden pins the DPLL search and the exact-guided hybrid
// that hosts on it: on seeded formulas, dpll's verdict, model and four
// counters, and SolveExact's verdict, model, DPLL counters and probe
// count, hash to sums recorded before DPLL moved onto cnf's propagation
// and branch rule.
func TestSearchGolden(t *testing.T) {
	const (
		wantDPLL   = "2f44aa47f6d99214dd1020e9ff552bcec23fc9809993ad4c1c59596fc9f755e5"
		wantHybrid = "cc4c78294b997fa6e87fdcfc35822282dfdf886b853b2a434d3d85a26a531b37"
	)
	g := rng.New(32)
	hd, hh := sha256.New(), sha256.New()
	for i := range 1500 {
		f := goldenFormula(g, 3+g.Intn(28))
		s := dpll.New(f, nil)
		a, ok := s.Solve()
		fmt.Fprintf(hd, "%v %v %+v\n", ok, a, s.Stats())
		if i%5 == 0 && f.NumVars <= 14 {
			r := SolveExact(f)
			fmt.Fprintf(hh, "%v %v %+v %d\n", r.Satisfiable, r.Assignment, r.DPLL, r.Probes)
		}
	}
	if got := hex.EncodeToString(hd.Sum(nil)); got != wantDPLL {
		t.Errorf("dpll sum %s, want %s", got, wantDPLL)
	}
	if got := hex.EncodeToString(hh.Sum(nil)); got != wantHybrid {
		t.Errorf("SolveExact sum %s, want %s", got, wantHybrid)
	}
}
