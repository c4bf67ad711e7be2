package sbl

import (
	"context"
	"fmt"

	"repro/internal/cnf"
	"repro/internal/obs"
	"repro/internal/solver"
)

func init() {
	// sbl is warm (solver.Warm): Engine.Reset keeps the carrier bank
	// whenever the (n, m) geometry repeats. Its carriers are
	// deterministic, so the seed goes unused.
	solver.Register("sbl", func(_ string, cfg solver.Config) (solver.Solver, error) {
		if cfg.FindModel {
			return nil, solver.ErrNoModelRecovery("sbl")
		}
		alloc, err := parseAllocation(cfg.Allocation)
		if err != nil {
			return nil, err
		}
		return solver.NewWarm("sbl", cfg.Seed,
			func(f *cnf.Formula, _ uint64) (*Engine, error) {
				return New(f, Options{Alloc: alloc, MaxSamples: cfg.MaxSamples})
			},
			check), nil
	})
}

func parseAllocation(name string) (Allocation, error) {
	switch name {
	case "", "geometric4":
		return Geometric4, nil
	case "linear":
		return Linear, nil
	default:
		return 0, fmt.Errorf("sbl: unknown allocation %q (want geometric4|linear)", name)
	}
}

// check runs one SBL observation window over the carriers' full
// common period. The DC read-out is exact only over a full period; a
// truncated window carries spectral leakage that can flip the decision,
// so when the period exceeds MaxSamples the check answers UNKNOWN
// without sampling, as no truncated window could be read as a verdict
// (Engine.CheckCtx still observes one for the experiments). The read-out
// is deterministic (no stderr), so the span's trajectory is one point
// whose Dist is the absolute margin of the windowed mean over the
// engine's threshold.
func check(ctx context.Context, eng *Engine, f *cnf.Formula, sp *obs.Span) (solver.Result, error) {
	var out solver.Result
	if eng.Period() > eng.opts.MaxSamples {
		return out, nil
	}
	r, err := eng.CheckCtx(ctx)
	out.Stats.Samples, out.Stats.Mean = r.Samples, r.Mean
	if sp != nil && r.Samples > 0 {
		sp.Point(obs.TrajPoint{
			Round: 1, Samples: r.Samples,
			Mean: r.Mean, Dist: r.Mean - threshold,
		})
	}
	if err != nil {
		return out, err
	}
	if r.Satisfiable {
		out.Status = solver.StatusSat
	} else {
		out.Status = solver.StatusUnsat
	}
	return out, nil
}
