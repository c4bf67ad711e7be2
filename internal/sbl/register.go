package sbl

import (
	"context"
	"fmt"

	"repro/internal/cnf"
	"repro/internal/hyperspace"
	"repro/internal/obs"
	"repro/internal/solver"
)

func init() {
	// sbl is warm (solver.Warm): Engine.Reset keeps the carrier bank
	// whenever the (n, m) geometry repeats.
	solver.Register("sbl", func(cfg solver.Config) solver.Solver {
		return solver.NewWarm("sbl",
			func(f *cnf.Formula) (*Engine, error) {
				if cfg.FindModel {
					return nil, solver.ErrNoModelRecovery("sbl")
				}
				alloc, err := parseAllocation(cfg.Allocation)
				if err != nil {
					return nil, err
				}
				return New(f, Options{Alloc: alloc, MaxSamples: cfg.MaxSamples})
			},
			check)
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

// check runs one SBL observation window. The DC read-out is
// deterministic (no stderr), so the span's trajectory is one point
// whose Dist is the absolute margin of the windowed mean over the
// engine's threshold.
func check(ctx context.Context, eng *Engine, f *cnf.Formula, sp *obs.Span) (solver.Result, error) {
	r, err := eng.CheckCtx(ctx)
	out := solver.Result{
		Stats: solver.Stats{
			Samples: r.Samples, Mean: r.Mean,
			// The observation loop runs the block evaluator's row kernels;
			// the carrier fill is the scalar cosine table walk.
			FillAccel: "none", EvalAccel: hyperspace.EvalAccelName(),
		},
	}
	if sp != nil && r.Samples > 0 {
		sp.Point(obs.TrajPoint{
			Round: 1, Samples: r.Samples,
			Mean: r.Mean, Dist: r.Mean - eng.opts.Threshold,
		})
	}
	if err != nil {
		return out, err
	}
	// The DC read-out is exact only over the carriers' full common
	// period; a truncated window carries spectral leakage that can
	// flip the decision, so it is reported as UNKNOWN rather than
	// a verdict (matching how the integration suite treats SBL).
	if !r.FullPeriod {
		return out, nil
	}
	if r.Satisfiable {
		out.Status = solver.StatusSat
	} else {
		out.Status = solver.StatusUnsat
	}
	return out, nil
}
