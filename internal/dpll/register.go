package dpll

import (
	"context"

	"repro/internal/cnf"
	"repro/internal/solver"
)

func init() {
	solver.Register("dpll", func(string, solver.Config) (solver.Solver, error) {
		return solver.Func(func(ctx context.Context, f *cnf.Formula) (solver.Result, error) {
			s := New(f, nil)
			a, ok, err := s.SolveCtx(ctx)
			st := s.Stats()
			return solver.CompleteResult(a, ok, err, solver.Stats{
				Decisions:    st.Decisions,
				Propagations: st.Propagations,
				Conflicts:    st.Backtracks,
			})
		}), nil
	})
}
