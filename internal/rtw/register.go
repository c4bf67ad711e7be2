package rtw

import (
	"context"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/solver"
)

func init() {
	// rtw is warm (solver.Warm): Engine.Reset keeps the sampler's banks
	// and the wide kernel's bank and scratch whenever the (n, m)
	// geometry repeats, whatever the seed.
	solver.Register("rtw", func(_ string, cfg solver.Config) (solver.Solver, error) {
		if cfg.FindModel {
			return nil, solver.ErrNoModelRecovery("rtw")
		}
		return solver.NewWarm("rtw", cfg.Seed,
			func(f *cnf.Formula, seed uint64) (*Engine, error) {
				return New(f, core.Options{
					Seed:       seed,
					MaxSamples: cfg.MaxSamples,
					Theta:      cfg.Theta,
					Workers:    cfg.Workers,
				})
			},
			check), nil
	})
}

// check runs one telegraph-wave check: mc's check over noise.RTW where
// float64 is exact, the wide kernel beyond. Both end in
// core.CheckStatus, the SNR gate shared by every sampling engine, which
// is conservative for RTW: its ±1 carriers need fewer samples than
// uniform sources.
func check(ctx context.Context, eng *Engine, f *cnf.Formula, sp *obs.Span) (solver.Result, error) {
	if eng.wide {
		o := eng.mc.Options()
		return eng.wk.check(ctx, o.MaxSamples, o.Theta, sp)
	}
	return core.MCCheck(ctx, eng.mc, f, sp, false)
}
