package cdcl

import (
	"context"

	"repro/internal/cnf"
	"repro/internal/solver"
)

func init() {
	solver.Register("cdcl", func(string, solver.Config) (solver.Solver, error) {
		return solver.Func(func(ctx context.Context, f *cnf.Formula) (solver.Result, error) {
			s := New(f)
			a, ok, err := s.SolveCtx(ctx)
			st := s.Stats()
			return solver.CompleteResult(a, ok, err, solver.Stats{
				Decisions:    st.Decisions,
				Propagations: st.Propagations,
				Conflicts:    st.Conflicts,
				Restarts:     st.Restarts,
			})
		}), nil
	})
}
