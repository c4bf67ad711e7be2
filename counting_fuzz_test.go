package repro

import (
	"context"
	"math/big"
	"testing"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/count"
)

// fuzzFormula decodes a formula of at most 8 declared variables and 16
// clauses: body is a run of clauses, each a length byte (0 to 4
// literals) followed by one byte per literal. Duplicate literals,
// tautologies, empty clauses and declared variables that no clause
// mentions all decode.
func fuzzFormula(n uint8, body []byte) *cnf.Formula {
	f := cnf.New(int(n % 9))
	for len(body) > 0 && f.NumClauses() < 16 {
		k := int(body[0] % 5)
		body = body[1:]
		if f.NumVars == 0 {
			k = 0
		}
		c := cnf.Clause{}
		for ; k > 0 && len(body) > 0; k-- {
			c = append(c, cnf.NewLit(cnf.Var(1+int(body[0]>>1)%f.NumVars), body[0]&1 == 1))
			body = body[1:]
		}
		f.Clauses = append(f.Clauses, c)
	}
	return f
}

// fuzzBinding decodes a partial assignment over n variables: byte v-1
// of bind leaves variable v unbound, binds it true or binds it false.
func fuzzBinding(n int, bind []byte) cnf.Assignment {
	a := cnf.NewAssignment(n)
	for v := 1; v <= n && v <= len(bind); v++ {
		a.Set(cnf.Var(v), [3]cnf.Value{cnf.Unassigned, cnf.True, cnf.False}[bind[v-1]%3])
	}
	return a
}

// boundWeightedBrute sums, over the assignments of f that agree with
// bound, the product over clauses of the number of literals each makes
// true: core.WeightedCount's definition, enumerated directly.
func boundWeightedBrute(f *cnf.Formula, bound cnf.Assignment) *big.Int {
	total := new(big.Int)
	for bits := uint64(0); bits < 1<<f.NumVars; bits++ {
		a := cnf.AssignmentFromBits(bits, f.NumVars)
		w := big.NewInt(1)
		for v := 1; v <= f.NumVars; v++ {
			if b := bound.Get(cnf.Var(v)); b != cnf.Unassigned && b != a.Get(cnf.Var(v)) {
				w.SetInt64(0)
			}
		}
		for _, c := range f.Clauses {
			w.Mul(w, big.NewInt(int64(a.SatisfiedLiterals(c))))
		}
		total.Add(total, w)
	}
	return total
}

// FuzzCountingMatchesBrute holds the counting engines, bare and behind
// pre(·), core's bound K′ and the exact engine's verdict to brute-force
// enumeration on arbitrary small formulas.
func FuzzCountingMatchesBrute(f *testing.F) {
	f.Add(uint8(3), []byte{2, 2, 5, 2, 3, 4, 1, 0}, []byte{1, 0, 2})
	f.Add(uint8(2), []byte{3, 2, 2, 3, 0}, []byte{})
	f.Add(uint8(8), []byte{1, 4, 3, 6, 9, 12, 4, 0, 1, 2, 3}, []byte{0, 0, 0, 0, 0, 0, 0, 2})
	f.Add(uint8(5), []byte{}, []byte{1, 1})
	f.Add(uint8(0), []byte{0}, []byte{})
	f.Fuzz(func(t *testing.T, n uint8, body, bind []byte) {
		form := fuzzFormula(n, body)
		ctx := context.Background()
		models := new(big.Int).SetUint64(count.Brute(form))
		for _, run := range []struct {
			engine string
			task   Task
			want   *big.Int
		}{
			{"count", TaskCount, models},
			{"pre(count)", TaskCount, models},
			{"wcount", TaskWeightedCount, count.WeightedBrute(form)},
			{"pre(wcount)", TaskWeightedCount, count.WeightedBrute(form)},
		} {
			r, err := Solve(ctx, run.engine, form, Config{Task: run.task})
			if err != nil {
				t.Fatalf("%s on %v: %v", run.engine, form, err)
			}
			if r.Count == nil || r.Count.Cmp(run.want) != 0 {
				t.Fatalf("%s on %v (%d vars): %v, brute force %v", run.engine, form, form.NumVars, r.Count, run.want)
			}
		}
		bound := fuzzBinding(form.NumVars, bind)
		if got, want := core.WeightedCount(form, bound), boundWeightedBrute(form, bound); got.Cmp(want) != 0 {
			t.Fatalf("core.WeightedCount on %v under %v: %v, want %v", form, bound, got, want)
		}
		r, err := Solve(ctx, "exact", form, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if want := models.Sign() > 0; (r.Status == StatusSat) != want {
			t.Fatalf("exact on %v: %v, brute force satisfiable %t", form, r.Status, want)
		}
	})
}
