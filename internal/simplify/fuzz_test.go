package simplify

import (
	"testing"

	"repro/internal/cdcl"
	"repro/internal/cnf"
	"repro/internal/count"
)

// decodeFormula reads a formula from fuzz bytes: the first byte picks
// n in 1..8; then each clause is a length byte (0 to 4 literals)
// followed by one byte per literal (variable and sign). At most 24
// clauses are read; a clause cut short by the end of the data is kept
// as far as it goes.
func decodeFormula(data []byte) *cnf.Formula {
	if len(data) == 0 {
		return cnf.New(1)
	}
	f := cnf.New(1 + int(data[0])%8)
	data = data[1:]
	for len(data) > 0 && f.NumClauses() < 24 {
		k := int(data[0]) % 5
		data = data[1:]
		c := cnf.Clause{}
		for ; k > 0 && len(data) > 0; k-- {
			c = append(c, cnf.NewLit(cnf.Var(1+int(data[0]>>1)%f.NumVars), data[0]&1 == 1))
			data = data[1:]
		}
		f.Clauses = append(f.Clauses, c)
	}
	return f
}

// FuzzSimplifyReconstruct checks Simplify against brute force: an
// UNSAT proof is never wrong, a model of the reduced formula lifts to a
// model of the input, the count pipeline's pass set preserves the model
// count up to the free variables, and n·m never grows.
func FuzzSimplifyReconstruct(f *testing.F) {
	for _, seed := range [][]byte{
		{1, 2, 0, 2, 2, 0, 3, 2, 1, 2, 2, 1, 3},       // (x1+x2)(x1+!x2)(!x1+x2)(!x1+!x2)
		{2, 1, 0, 2, 2, 5, 2, 1, 4, 3, 0, 3, 4},       // Example 5
		{0, 1, 0, 1, 1},                               // (x1)(!x1)
		{7, 0, 3, 2, 4, 6, 4, 1, 3, 5, 7, 1, 8},       // an empty clause first
		{5, 1, 0, 2, 1, 2, 2, 3, 4, 2, 5, 6, 2, 7, 8}, // an implication chain
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeFormula(data)
		want := count.Brute(in)

		r := Simplify(in, Options{})
		if r.Stats.NMAfter() > r.Stats.NMBefore() {
			t.Fatalf("n·m grew: %s\ninput %s", r.Stats, in)
		}
		switch {
		case r.ProvedUnsat:
			if want != 0 {
				t.Fatalf("proved UNSAT, but %d models\ninput %s", want, in)
			}
		case want > 0:
			model, ok := cdcl.Solve(r.F)
			if !ok {
				t.Fatalf("reduced formula %s is UNSAT\ninput %s", r.F, in)
			}
			if lifted := r.Reconstruct(model); !lifted.Satisfies(in) {
				t.Fatalf("reconstructed %s does not satisfy input %s", lifted, in)
			}
		default:
			if _, ok := cdcl.Solve(r.F); ok {
				t.Fatalf("reduced formula %s is SAT, input %s is not", r.F, in)
			}
		}

		r = Simplify(in, Options{DisablePure: true, DisableBVE: true})
		if r.Stats.NMAfter() > r.Stats.NMBefore() {
			t.Fatalf("count passes grew n·m: %s\ninput %s", r.Stats, in)
		}
		if r.ProvedUnsat {
			if want != 0 {
				t.Fatalf("count passes proved UNSAT, but %d models\ninput %s", want, in)
			}
			return
		}
		forced := 0
		for v := cnf.Var(1); int(v) <= in.NumVars; v++ {
			if r.Forced.Get(v) != cnf.Unassigned {
				forced++
			}
		}
		free := in.NumVars - forced - r.F.NumVars
		if got := count.Brute(r.F) << free; got != want {
			t.Fatalf("count %d, want %d (free %d, reduced %s)\ninput %s", got, want, free, r.F, in)
		}
	})
}
