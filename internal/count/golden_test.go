package count

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/rng"
)

// renamedUnion conjoins a random 3-SAT block, an over-constrained 5/30
// block (almost always UNSAT) and a second random block in a random
// order, then renames the variables by a random permutation of a range
// that declares 7 more, so the components start at scattered names and
// the unused variables fall among them.
func renamedUnion(g *rng.Xoshiro256) *cnf.Formula {
	blocks := []*cnf.Formula{
		gen.RandomKSAT(g, 4+g.Intn(6), 2+g.Intn(20), 3),
		gen.RandomKSAT(g, 5, 30, 3),
		gen.RandomKSAT(g, 4+g.Intn(6), 2+g.Intn(20), 3),
	}
	g.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	u := gen.DisjointUnion(blocks...)
	perm := g.Perm(u.NumVars + 7)
	f := cnf.New(u.NumVars + 7)
	for _, c := range u.Clauses {
		d := make(cnf.Clause, len(c))
		for i, l := range c {
			d[i] = cnf.NewLit(cnf.Var(perm[l.Var()-1]+1), l.IsNeg())
		}
		f.Clauses = append(f.Clauses, d)
	}
	return f
}

// TestCountGolden pins the DPLL counter's whole output: on 1,500 seeded
// formulas (random 3-SAT with 8 to 23 variables, every third one a
// renamed union whose components include an over-constrained block),
// the count, Decisions and Propagations hash to a sum recorded before
// the counter moved onto cnf's propagation and branch rule. Counting
// stops at the first component with no models, so the order of the
// components shows in the counters of UNSAT unions.
func TestCountGolden(t *testing.T) {
	const want = "a190887b30e8eb30e3f6c269a8ec35f19f6c7e7f2d04280f6df969ec8a9b5daa"
	g := rng.New(32)
	h := sha256.New()
	for i := range 1500 {
		var f *cnf.Formula
		if i%3 == 2 {
			f = renamedUnion(g)
		} else {
			n := 8 + g.Intn(16)
			f = gen.RandomKSAT(g, n, 1+g.Intn(6*n), 3)
		}
		n, st, err := CountContext(context.Background(), f)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d %d\n", n, st.Decisions, st.Propagations)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("count sum %s, want %s", got, want)
	}
}
