package rtw

import (
	"context"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/solver"
)

func init() {
	// rtw is warm (solver.Warm): Engine.Reset reseeds the bank to its
	// construction streams and keeps it, with every scratch buffer,
	// whenever the (n, m) geometry repeats.
	solver.Register("rtw", func(cfg solver.Config) solver.Solver {
		return solver.NewWarm("rtw",
			func(f *cnf.Formula) (*Engine, error) {
				if cfg.FindModel {
					return nil, solver.ErrNoModelRecovery("rtw")
				}
				return New(f, cfg.Seed)
			},
			func(ctx context.Context, eng *Engine, f *cnf.Formula, sp *obs.Span) (solver.Result, error) {
				return check(ctx, eng, f, sp, cfg)
			})
	})
}

// check runs one telegraph-wave check. The engine has no round-boundary
// progress hook, so the span's SNR trajectory is the single end-of-check
// point (the final mean, stderr, and distance to the theta·stderr
// decision line).
func check(ctx context.Context, eng *Engine, f *cnf.Formula, sp *obs.Span, cfg solver.Config) (solver.Result, error) {
	r, err := eng.CheckCtx(ctx, cfg.MaxSamples, cfg.Theta)
	out := solver.Result{
		Stats: solver.Stats{
			Samples: r.Samples, Mean: r.Mean, StdErr: r.StdErr,
			// The integer-parity kernel bypasses both accelerated paths.
			FillAccel: "none", EvalAccel: "none",
		},
	}
	if sp != nil && r.Samples > 0 {
		dist := 0.0
		if r.StdErr > 0 {
			dist = r.Mean/r.StdErr - cfg.Theta
		}
		sp.Point(obs.TrajPoint{
			Round: 1, Samples: r.Samples,
			Mean: r.Mean, StdErr: r.StdErr, Dist: dist,
		})
	}
	if err != nil {
		return out, err
	}
	// The shared SNR gate is conservative for RTW, whose ±1 carriers
	// need fewer samples than uniform sources.
	out.Status = core.CheckStatus(r.Satisfiable, f.NumVars, f.NumClauses(), r.Samples)
	return out, nil
}
