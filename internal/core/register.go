package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"strconv"

	"repro/internal/cnf"
	"repro/internal/hyperspace"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/solver"
)

// This file adapts the two core engines to the unified solver.Solver
// interface and registers them as "mc" (Monte-Carlo Algorithm 1/2) and
// "exact" (infinite-sample closed form).

func init() {
	// mc is warm (solver.Warm): the engine persists across Solve calls,
	// and Engine.Reset keeps the per-worker banks, evaluators and block
	// buffers whenever the (n, m) geometry repeats, whatever the seed.
	solver.Register("mc", func(_ string, cfg solver.Config) (solver.Solver, error) {
		fam, err := ParseFamily(cfg.Family)
		if err != nil {
			return nil, err
		}
		return solver.NewWarm("mc", cfg.Seed,
			func(f *cnf.Formula, seed uint64) (*Engine, error) {
				return NewEngine(f, Options{
					Family:     fam,
					Seed:       seed,
					MaxSamples: cfg.MaxSamples,
					Theta:      cfg.Theta,
					Workers:    cfg.Workers,
				})
			},
			func(ctx context.Context, eng *Engine, f *cnf.Formula, sp *obs.Span) (solver.Result, error) {
				return MCCheck(ctx, eng, f, sp, cfg.FindModel)
			}), nil
	})
	solver.Register("exact", func(_ string, cfg solver.Config) (solver.Solver, error) {
		return exactSolver{cfg}, nil
	})
}

// RequiredSamples returns the number of noise samples needed to reach
// the Section III-F target SNR for an instance with K satisfying
// minterms: N = (3·target·2^(nm)/K)^2 + 1. The result may be +Inf when
// the budget exceeds float64 range, which is itself the scalability
// experiment's conclusion.
func RequiredSamples(n, m int, k, target float64) float64 {
	r := 3 * target * math.Exp2(float64(n*m)) / k
	return r*r + 1
}

// UnsatBudgetAdequate reports whether a sample budget gives the
// Section III-F SNR >= 1 for distinguishing a single satisfying minterm
// from none — the minimum statistical footing for an UNSAT claim by a
// sampling engine. For n·m beyond ~30 the requirement overflows any
// practical budget and this returns false, which is exactly the honest
// answer.
func UnsatBudgetAdequate(n, m int, samples int64) bool {
	return float64(samples) >= RequiredSamples(n, m, 1, 1)
}

// CheckStatus is the one verdict policy shared by every sampling engine
// (mc, rtw, analog): a z-score above theta is significant evidence for
// SAT regardless of budget, but the paper's UNSAT decision (mean not
// significantly positive after the budget) is honored only when the
// consumed budget clears the Section III-F SNR requirement. Below it a
// near-zero mean is just an instance beyond the engine's reach: the
// verdict is UNKNOWN, and must not outrace a complete solver in a
// portfolio with a certified-looking UNSAT.
//
// A not-satisfiable verdict with zero samples is structural, not
// statistical — the engine short-circuited on a degenerate formula (an
// empty clause) without touching the sampler — so it is certain and
// exempt from the SNR gate. (Any genuine sampling run consumes at least
// the MinSamples floor, so zero samples cannot be a starved run.)
func CheckStatus(satisfiable bool, n, m int, samples int64) solver.Status {
	switch {
	case satisfiable:
		return solver.StatusSat
	case samples == 0 || UnsatBudgetAdequate(n, m, samples):
		return solver.StatusUnsat
	default:
		return solver.StatusUnknown
	}
}

// ParseFamily maps the CLI/registry family names to noise families.
func ParseFamily(name string) (noise.Family, error) {
	switch name {
	case "half":
		return noise.UniformHalf, nil
	case "unit", "":
		return noise.UniformUnit, nil
	case "gauss":
		return noise.Gaussian, nil
	case "rtw":
		return noise.RTW, nil
	default:
		return 0, fmt.Errorf("core: unknown noise family %q (want half|unit|gauss|rtw)", name)
	}
}

// MCCheck runs one mc solve on a warm engine: Algorithm 1, or
// Algorithm 2 under FindModel, with the shared SNR gate on UNSAT. On a
// traced context the progress hook is wrapped so every merged
// convergence round also lands on the check span's SNR trajectory.
// rtw's registry entry calls it too, on every geometry its float64
// sampler evaluates exactly.
func MCCheck(ctx context.Context, eng *Engine, f *cnf.Formula, sp *obs.Span, findModel bool) (solver.Result, error) {
	if sp != nil {
		ctx = withTrajectory(ctx, sp, eng.Options().Theta)
	}
	var out solver.Result
	var err error
	if findModel {
		var res AssignResult
		res, err = eng.AssignCtx(ctx)
		out.Stats = assignStats(res)
		if sp != nil {
			// The sampled checks behind Stats.Samples: a trace then
			// shows why a solve drew one budget's worth or several.
			sp.SetAttr("checks", strconv.Itoa(len(res.Checks)))
		}
		switch {
		case err == nil:
			out.Status, out.Assignment = solver.StatusSat, res.Assignment
		case errors.Is(err, ErrUnsat):
			// The initial full-space check saw no significant mean; that
			// is only an UNSAT verdict with the SNR budget behind it, the
			// same gate as the plain check below.
			out.Status, err = CheckStatus(false, f.NumVars, f.NumClauses(), out.Stats.Samples), nil
		}
		// ErrInconsistent (the reduced checks contradicted each other: the
		// budget was too small for the instance's SNR) passes through like
		// cancellation, so callers know to raise MaxSamples or Theta
		// rather than read it as an ordinary budget-exhausted unknown.
	} else {
		var r Result
		r, err = eng.CheckCtx(ctx)
		out.Stats = solver.Stats{Samples: r.Samples, Mean: r.Mean, StdErr: r.StdErr}
		if err == nil {
			out.Status = CheckStatus(r.Satisfiable, f.NumVars, f.NumClauses(), r.Samples)
		}
	}
	// The hot path's kernels: the block evaluator's clause and tau
	// kernels and the noise fill for the engine's family.
	out.Stats.EvalAccel = hyperspace.EvalAccelName()
	out.Stats.FillAccel = noise.FillAccelKernel(eng.Options().Family)
	return out, err
}

// withTrajectory wraps ctx's progress hook so that every call also adds
// an SNR trajectory point to sp: one hook serves both the caller's live
// progress and the span. The sampler fires it only at merged round
// boundaries, from its coordinating goroutine, so the per-sample hot
// loop never sees the tracer.
func withTrajectory(ctx context.Context, sp *obs.Span, theta float64) context.Context {
	outer := solver.ProgressFromContext(ctx)
	round := 0
	return solver.ContextWithProgress(ctx, func(st solver.Stats) {
		if outer != nil {
			outer(st)
		}
		round++
		dist := 0.0
		if st.StdErr > 0 {
			dist = st.Mean/st.StdErr - theta
		}
		sp.Point(obs.TrajPoint{
			Round: round, Samples: st.Samples,
			Mean: st.Mean, StdErr: st.StdErr, Dist: dist,
		})
	})
}

func assignStats(res AssignResult) solver.Stats {
	var st solver.Stats
	for _, c := range res.Checks {
		st.Samples += c.Samples
	}
	if n := len(res.Checks); n > 0 {
		st.Mean = res.Checks[0].Mean
		st.StdErr = res.Checks[0].StdErr
	}
	return st
}

type exactSolver struct{ cfg solver.Config }

func (s exactSolver) Solve(ctx context.Context, f *cnf.Formula) (solver.Result, error) {
	if f.NumVars > MaxExactVars {
		return solver.Result{}, fmt.Errorf(
			"exact: limited to %d variables, got %d", MaxExactVars, f.NumVars)
	}
	if err := f.Validate(); err != nil {
		return solver.Result{}, err
	}

	if s.cfg.FindModel {
		a, ok, err := ExactAssignCtx(ctx, f)
		if err != nil {
			return solver.Result{}, err
		}
		if !ok {
			return solver.Result{Status: solver.StatusUnsat}, nil
		}
		return solver.Result{Status: solver.StatusSat, Assignment: a}, nil
	}

	k, err := WeightedCountCtx(ctx, f, cnf.NewAssignment(f.NumVars))
	if err != nil {
		return solver.Result{}, err
	}
	mean, _ := new(big.Float).SetInt(k).Float64()
	out := solver.Result{Stats: solver.Stats{Mean: mean}}
	if k.Sign() > 0 {
		out.Status = solver.StatusSat
	} else {
		out.Status = solver.StatusUnsat
	}
	return out, nil
}
