package simplify

import (
	"slices"
	"testing"

	"repro/internal/cdcl"
	"repro/internal/cnf"
)

// decodeFormula reads a formula from fuzz bytes: the first byte picks
// n in 1..8; then each clause is a length byte (0 to 4 literals)
// followed by one byte per literal (variable and sign). At most 24
// clauses are read; a clause cut short by the end of the data is kept
// as far as it goes.
func decodeFormula(data []byte) *cnf.Formula { return decodeFormulaUpTo(data, 8, 24) }

// decodeFormulaUpTo is decodeFormula with n in 1..maxVars (at most 128)
// and at most maxClauses clauses.
func decodeFormulaUpTo(data []byte, maxVars, maxClauses int) *cnf.Formula {
	if len(data) == 0 {
		return cnf.New(1)
	}
	f := cnf.New(1 + int(data[0])%maxVars)
	data = data[1:]
	for len(data) > 0 && f.NumClauses() < maxClauses {
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
		want := bruteCount(in)

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
		if got := bruteCount(r.F) << free; got != want {
			t.Fatalf("count %d, want %d (free %d, reduced %s)\ninput %s", got, want, free, r.F, in)
		}
	})
}

// FuzzCondition checks Condition against brute force on any formula
// (unit and empty clauses included) under any partial binding: bind
// holds two bits per variable, 1 binding it true, 2 false, 0 and 3
// leaving it open. A refutation is never wrong, an empty residual
// leaves a model once the open variables take true, and otherwise the
// residual has as many models as the bound formula, up to its free
// variables, and each one lifts through VarMap to a model of the input.
func FuzzCondition(f *testing.F) {
	for _, seed := range []struct {
		data []byte
		bind uint16
	}{
		{[]byte{1, 2, 0, 2, 2, 1, 3}, 0b01},                   // Example 6, x1 = 1
		{[]byte{2, 1, 0, 2, 2, 5, 2, 1, 4, 3, 0, 3, 4}, 0},    // Example 5: units decide all
		{[]byte{2, 3, 0, 2, 4, 3, 1, 2, 5, 3, 0, 3, 4}, 0b01}, // a residual survives x1 = 1
		{[]byte{0, 1, 0, 1, 1}, 0},                            // (x1)(!x1)
		{[]byte{3, 2, 0, 2, 2, 1, 3}, 0b1010},                 // bindings refuted
		{[]byte{7, 0, 3, 2, 4, 6}, 0b0110},                    // an empty clause
	} {
		f.Add(seed.data, seed.bind)
	}
	f.Fuzz(func(t *testing.T, data []byte, bind uint16) {
		in := decodeFormula(data)
		bound := cnf.NewAssignment(in.NumVars)
		withUnits := &cnf.Formula{NumVars: in.NumVars, Clauses: slices.Clone(in.Clauses)}
		for v := cnf.Var(1); int(v) <= in.NumVars; v++ {
			switch bind >> (2 * (v - 1)) & 3 {
			case 1:
				bound.Set(v, cnf.True)
				withUnits.Clauses = append(withUnits.Clauses, cnf.Clause{cnf.Pos(v)})
			case 2:
				bound.Set(v, cnf.False)
				withUnits.Clauses = append(withUnits.Clauses, cnf.Clause{cnf.Neg(v)})
			}
		}
		want := bruteCount(withUnits)

		r := Condition(in, bound)
		if r.ProvedUnsat {
			if want != 0 {
				t.Fatalf("refuted bindings %s, but %d models\ninput %s", bound, want, in)
			}
			return
		}
		forced := 0
		for v := cnf.Var(1); int(v) <= in.NumVars; v++ {
			if bound.Get(v) != cnf.Unassigned && r.Forced.Get(v) != bound.Get(v) {
				t.Fatalf("x%d bound %s, forced %s\ninput %s", v, bound.Get(v), r.Forced.Get(v), in)
			}
			if r.Forced.Get(v) != cnf.Unassigned {
				forced++
				if slices.Contains(r.VarMap, v) {
					t.Fatalf("forced x%d is in the residual %s\ninput %s", v, r.F, in)
				}
			}
		}
		free := in.NumVars - forced - r.F.NumVars
		if got := bruteCount(r.F) << free; got != want {
			t.Fatalf("residual %s has %d models with %d free variables, want %d\ninput %s bound %s",
				r.F, got, free, want, in, bound)
		}

		model := cnf.NewAssignment(r.F.NumVars)
		if r.F.NumClauses() > 0 {
			var ok bool
			if model, ok = cdcl.Solve(r.F); !ok {
				return // no model to lift; the count above agreed
			}
		}
		lifted := r.Forced.Clone()
		for i, orig := range r.VarMap {
			lifted.Set(orig, model.Get(cnf.Var(i+1)))
		}
		for v := 1; v < len(lifted); v++ {
			if lifted[v] == cnf.Unassigned {
				lifted[v] = cnf.True
			}
		}
		if !lifted.Satisfies(withUnits) {
			t.Fatalf("lifted %s does not satisfy input %s under %s (residual %s)", lifted, in, bound, r.F)
		}
	})
}
