package count

import (
	"context"

	"repro/internal/cnf"
	"repro/internal/solver"
)

func init() {
	solver.Register("count", factory("count", solveCount), solver.TaskDecide, solver.TaskCount)
	solver.Register("wcount", factory("wcount", solveWeighted), solver.TaskDecide, solver.TaskWeightedCount)
}

// factory is the registry factory of a counting engine. A counter
// recovers no model, so it refuses FindModel at construction. It holds
// no cross-solve state (every Solve builds its own compacted copy), so
// the lease pool builds one per lease and keeps none idle.
func factory(name string, solve solver.Func) solver.Factory {
	return func(_ string, cfg solver.Config) (solver.Solver, error) {
		if cfg.FindModel {
			return nil, solver.ErrNoModelRecovery(name)
		}
		return solve, nil
	}
}

// solveCount adapts the exact DPLL counter to the registry. Under
// TaskDecide it still counts and reports the verdict — exact counting
// is a sound (if expensive) decision procedure — so the capability set
// includes decide and the conformance suites can race it against the
// samplers.
func solveCount(ctx context.Context, f *cnf.Formula) (solver.Result, error) {
	n, st, err := CountContext(ctx, f)
	stats := solver.Stats{Decisions: st.Decisions, Propagations: st.Propagations}
	return solver.CountResult(n, err, stats)
}

// solveWeighted adapts the clause-cover-weighted counter (the K' of
// E[S_N] = K'·sigma^(2nm)) to the registry. It doubles as a decide
// engine too: K' > 0 exactly when the formula is satisfiable, because
// every satisfying assignment contributes a positive weight.
func solveWeighted(ctx context.Context, f *cnf.Formula) (solver.Result, error) {
	n, err := WeightedContext(ctx, f)
	return solver.CountResult(n, err, solver.Stats{})
}
