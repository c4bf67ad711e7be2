package count

import (
	"context"
	"fmt"
	"math/big"

	"repro/internal/cnf"
)

// Weighted returns the clause-cover-weighted model count K' (see
// WeightedBrute) using connected-component decomposition: the weight of
// an assignment factors over the components of the variable-interaction
// graph, so K'(f) is the product of per-component weighted counts, with
// a factor 2 per variable mentioned in no clause. Each component is
// enumerated exhaustively, so the limit is the largest component's
// variable count rather than the formula's.
//
// Unlike Count, Weighted must not pre-simplify: removing duplicate
// literals or general tautologies changes per-clause satisfied-literal
// multiplicities and hence K'.
func Weighted(f *cnf.Formula) *big.Int {
	// context.Background never cancels, so the only possible error is
	// the component-size bound — preserved as the historical panic.
	total, err := WeightedContext(context.Background(), f)
	if err != nil {
		panic(err.Error())
	}
	return total
}

// WeightedContext is Weighted with cancellation and a recoverable
// size bound: an oversized component surfaces as an error instead of a
// panic (same message text), so the wcount engine can reject a formula
// without killing its worker. This is the entry point services use;
// Weighted keeps the oracle-style signature for tests.
//
// The components come from simplify.Decompose over the variables that
// occur, renamed densely, so an empty clause is a zero-variable
// component of weight 0 and the work is sized by the literals f holds.
func WeightedContext(ctx context.Context, f *cnf.Formula) (*big.Int, error) {
	comps, free := split(f)
	total := big.NewInt(1)
	for _, comp := range comps {
		if comp.F.NumVars > maxBruteVars {
			return nil, fmt.Errorf("count: Weighted component has %d variables, limit %d",
				comp.F.NumVars, maxBruteVars)
		}
		w, err := weightedComponent(ctx, comp.F)
		if err != nil {
			return nil, err
		}
		if total.Mul(total, w).Sign() == 0 {
			return total, nil
		}
	}
	return total.Lsh(total, uint(free)), nil
}

// weightedComponent enumerates the assignments of a component over
// variables 1..f.NumVars and sums the per-clause satisfied-literal
// products. The context is polled every 4096 assignments: enumeration
// is exponential in the component's variable count, so a cancelled
// request must not hold a worker for the remainder of 2^n iterations.
func weightedComponent(ctx context.Context, f *cnf.Formula) (*big.Int, error) {
	total, w, t := new(big.Int), new(big.Int), new(big.Int)
assignments:
	for bits := uint64(0); bits < 1<<f.NumVars; bits++ {
		if bits&4095 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		w.SetInt64(1)
		for _, c := range f.Clauses {
			n := int64(0)
			for _, l := range c {
				// Variable v is bit v-1, and a literal is true when that
				// bit differs from its negation bit.
				n += int64((bits>>(l.Var()-1) ^ uint64(l)) & 1)
			}
			if n == 0 {
				continue assignments
			}
			w.Mul(w, t.SetInt64(n))
		}
		total.Add(total, w)
	}
	return total, nil
}
