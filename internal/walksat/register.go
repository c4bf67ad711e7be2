package walksat

import (
	"context"

	"repro/internal/cnf"
	"repro/internal/solver"
)

func init() {
	solver.Register("walksat", func(_ string, cfg solver.Config) (solver.Solver, error) {
		return solver.Func(func(ctx context.Context, f *cnf.Formula) (solver.Result, error) {
			r, err := SolveCtx(ctx, f, Options{
				MaxFlips: cfg.MaxFlips,
				Restarts: cfg.Restarts,
				NoiseP:   cfg.NoiseP,
				Seed:     cfg.Seed,
			})
			out := solver.Result{Stats: solver.Stats{
				Flips:    r.Stats.Flips,
				Restarts: r.Stats.Restarts,
			}}
			if err != nil {
				return out, err
			}
			if r.Found {
				out.Status = solver.StatusSat
				out.Assignment = r.Assignment
			}
			// Local search proves nothing about UNSAT: no model within the
			// budget stays StatusUnknown.
			return out, nil
		}), nil
	})
}
