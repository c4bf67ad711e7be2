package count

import (
	"context"

	"repro/internal/cnf"
	"repro/internal/solver"
)

func init() {
	solver.Register("count", func(cfg solver.Config) solver.Solver {
		return &countSolver{cfg: cfg}
	})
	solver.RegisterTasks("count", solver.TaskDecide, solver.TaskCount)
	solver.Register("wcount", func(cfg solver.Config) solver.Solver {
		return &wcountSolver{cfg: cfg}
	})
	solver.RegisterTasks("wcount", solver.TaskDecide, solver.TaskWeightedCount)
}

// countSolver adapts the exact DPLL counter to the registry. The
// counter holds no cross-solve state (every Solve builds its own
// compacted copy), so the lease pool builds one per lease and keeps
// none idle. Under TaskDecide it still counts and reports the verdict
// — exact counting is a sound (if expensive) decision procedure — so
// the capability set includes decide and the conformance suites can
// race it against the samplers.
type countSolver struct {
	cfg solver.Config
}

func (s *countSolver) Solve(ctx context.Context, f *cnf.Formula) (solver.Result, error) {
	if s.cfg.FindModel {
		return solver.Result{}, solver.ErrNoModelRecovery("count")
	}
	n, st, err := CountContext(ctx, f)
	stats := solver.Stats{Decisions: st.Decisions, Propagations: st.Propagations}
	return solver.CountResult(n, err, stats)
}

// wcountSolver adapts the clause-cover-weighted counter (the K' of
// E[S_N] = K'·sigma^(2nm)) to the registry. Like countSolver it is
// stateless and doubles as a decide engine: K' > 0 exactly when the
// formula is satisfiable, because every satisfying assignment
// contributes a positive weight.
type wcountSolver struct {
	cfg solver.Config
}

func (s *wcountSolver) Solve(ctx context.Context, f *cnf.Formula) (solver.Result, error) {
	if s.cfg.FindModel {
		return solver.Result{}, solver.ErrNoModelRecovery("wcount")
	}
	n, err := WeightedContext(ctx, f)
	return solver.CountResult(n, err, solver.Stats{})
}
