package analog

import (
	"context"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/solver"
)

func init() {
	solver.Register("analog", func(_ string, cfg solver.Config) (solver.Solver, error) {
		if cfg.FindModel {
			return nil, solver.ErrNoModelRecovery("analog")
		}
		fam, err := core.ParseFamily(cfg.Family)
		if err != nil {
			return nil, err
		}
		return solver.Func(func(ctx context.Context, f *cnf.Formula) (solver.Result, error) {
			eng, err := Compile(f, fam, cfg.Seed)
			if err != nil {
				return solver.Result{}, err
			}
			r, err := eng.CheckCtx(ctx, cfg.MaxSamples, cfg.Theta)
			out := solver.Result{
				Stats: solver.Stats{Samples: r.Samples, Mean: r.Mean, StdErr: r.StdErr},
			}
			if err != nil {
				return out, err
			}
			// The netlist computes the identical statistic to mc, so the
			// same SNR gate applies to its UNSAT claim.
			out.Status = core.CheckStatus(r.Satisfiable, f.NumVars, f.NumClauses(), r.Samples)
			return out, nil
		}), nil
	})
}
