package core

import (
	"context"
	"fmt"
	"math"
	"math/big"

	"repro/internal/cnf"
	"repro/internal/count"
	"repro/internal/noise"
)

// MaxExactVars bounds the exhaustive enumeration behind the exact
// engine (and everything built on it, like the hybrid coprocessor).
// NBL simulation is itself limited to small n·m by its SNR
// (Section III-F), so this is not the binding constraint in practice.
const MaxExactVars = 28

// WeightedCount returns K'(f, bound): the sum over satisfying
// assignments consistent with the bindings of the product over clauses
// of the number of satisfied literals. This is the exact coefficient of
// sigma^(2nm) in E[S_N] for the hyperspace reduced by bound:
// every satisfying minterm appears in Z_j once per literal that
// satisfies clause j, so its self-correlation is counted with that
// multiplicity.
func WeightedCount(f *cnf.Formula, bound cnf.Assignment) *big.Int {
	total, _ := WeightedCountCtx(context.Background(), f, bound)
	return total
}

// WeightedCountCtx is WeightedCount with cancellation: it returns a nil
// count with ctx.Err() when the context ends. K'(f, bound) is
// count.WeightedContext on f with one unit clause per bound variable:
// a unit clause weighs 1 under the assignments that satisfy it and 0
// under the rest, so it keeps exactly the assignments consistent with
// the bindings at their own weights. The units come first, so an
// inconsistent assignment fails at its first clause.
func WeightedCountCtx(ctx context.Context, f *cnf.Formula, bound cnf.Assignment) (*big.Int, error) {
	if f.NumVars > MaxExactVars {
		panic(fmt.Sprintf("core: exact engine limited to %d variables, got %d", MaxExactVars, f.NumVars))
	}
	g := cnf.New(f.NumVars)
	for v := 1; v <= f.NumVars; v++ {
		if val := bound.Get(cnf.Var(v)); val != cnf.Unassigned {
			g.Clauses = append(g.Clauses, cnf.Clause{cnf.NewLit(cnf.Var(v), val == cnf.False)})
		}
	}
	g.Clauses = append(g.Clauses, f.Clauses...)
	return count.WeightedContext(ctx, g)
}

// ExactMean returns the closed-form E[S_N] = K'·sigma^(2nm) for the
// hyperspace reduced by bound, under the given noise family. For large
// n·m with the UniformHalf family the value may underflow float64 to 0;
// use WeightedCount for the exact integer coefficient.
func ExactMean(f *cnf.Formula, bound cnf.Assignment, fam noise.Family) float64 {
	k, _ := new(big.Float).SetInt(WeightedCount(f, bound)).Float64()
	nm := float64(f.NumVars * f.NumClauses())
	return k * math.Pow(fam.Sigma2(), nm)
}

// ExactCheck is the idealized Algorithm 1: infinite-sample NBL-SAT.
// It reports SAT exactly when E[S_N] > 0, i.e. K' > 0.
func ExactCheck(f *cnf.Formula) bool {
	return WeightedCount(f, cnf.NewAssignment(f.NumVars)).Sign() > 0
}

// ExactAssign is the idealized Algorithm 2: it recovers a satisfying
// assignment using exactly n reduced exact checks, mirroring the
// iterative binding procedure with an infinite-sample oracle. The bool
// reports satisfiability; when false the assignment is nil.
func ExactAssign(f *cnf.Formula) (cnf.Assignment, bool) {
	a, ok, _ := ExactAssignCtx(context.Background(), f)
	return a, ok
}

// ExactAssignCtx is ExactAssign with cancellation threaded through every
// reduced exact check.
func ExactAssignCtx(ctx context.Context, f *cnf.Formula) (cnf.Assignment, bool, error) {
	k, err := WeightedCountCtx(ctx, f, cnf.NewAssignment(f.NumVars))
	if err != nil {
		return nil, false, err
	}
	if k.Sign() <= 0 {
		return nil, false, nil
	}
	bound := cnf.NewAssignment(f.NumVars)
	for v := 1; v <= f.NumVars; v++ {
		bound.Set(cnf.Var(v), cnf.True)
		k, err = WeightedCountCtx(ctx, f, bound)
		if err != nil {
			return nil, false, err
		}
		if k.Sign() <= 0 {
			bound.Set(cnf.Var(v), cnf.False)
		}
	}
	return bound, true, nil
}
