package hybrid

import (
	"context"
	"fmt"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/solver"
)

func init() {
	solver.Register("hybrid", func(_ string, cfg solver.Config) (solver.Solver, error) {
		return solver.Func(func(ctx context.Context, f *cnf.Formula) (solver.Result, error) {
			// The exact coprocessor enumerates 2^n minterms per probe and
			// refuses (panics) past MaxExactVars; reject up front.
			if f.NumVars > core.MaxExactVars {
				return solver.Result{}, fmt.Errorf(
					"hybrid: exact coprocessor limited to %d variables, got %d",
					core.MaxExactVars, f.NumVars)
			}
			cop := &Exact{F: f}
			r, err := solveCtx(ctx, f, cop, cfg.Candidates)
			return solver.CompleteResult(r.Assignment, r.Satisfiable, err, solver.Stats{
				Decisions:    r.DPLL.Decisions,
				Propagations: r.DPLL.Propagations,
				Conflicts:    r.DPLL.Backtracks,
				Probes:       cop.Probes,
			})
		}), nil
	})
}
