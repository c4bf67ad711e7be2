// Package core implements the paper's primary contribution: the NBL-SAT
// satisfiability checker (Algorithm 1) and satisfying-assignment
// extraction (Algorithm 2), on top of the noise and hyperspace
// substrates.
//
// Two engines are provided:
//
//   - Engine: the Monte-Carlo simulation engine. It estimates the mean of
//     S_N = tau_N·Sigma_N over noise samples, stopping on the paper's
//     convergence rule (mean stable to a given number of significant
//     digits) or a sample budget, and decides SAT when the mean is
//     significantly above zero. This is the software realization the
//     paper validated in MATLAB (Section IV).
//   - the Exact* functions: closed-form evaluation of E[S_N] through the
//     weighted model count K' (E[S_N] = K'·sigma^(2nm)), which is what
//     the superposition algebra of Section III guarantees the mean
//     converges to. They serve as ground truth in tests and experiments.
//     K' under a partial binding is count.WeightedContext on the formula
//     with one unit clause per bound variable; core keeps no 2^n loop
//     of its own.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cnf"
	"repro/internal/noise"
	"repro/internal/stats"
)

// Options configures a Monte-Carlo NBL-SAT engine.
type Options struct {
	// Family selects the basis noise family. Default UniformHalf, the
	// paper's choice.
	Family noise.Family
	// Seed seeds every noise stream. Runs are reproducible given
	// (Options, formula).
	Seed uint64
	// MaxSamples is the per-check sample budget (paper: 1e8).
	// Default 4e6.
	MaxSamples int64
	// MinSamples is the minimum number of samples before any decision
	// or convergence stop. Default 10_000.
	MinSamples int64
	// CheckEvery is the cadence, in samples, of convergence checks.
	// Default 50_000.
	CheckEvery int64
	// Theta is the SAT decision threshold in standard errors: the check
	// returns SAT when mean > Theta·stderr. Default 4.
	Theta float64
	// Workers is the number of parallel sampling goroutines. Default 1.
	// Results are bit-identical for every worker count: workers claim
	// disjoint sample-index chunks of the same counter-addressed
	// streams.
	Workers int
	// block overrides the sampling batch size in tests. Zero selects
	// hyperspace.BlockSize for the instance geometry, which depends on
	// the geometry alone, so every host samples the same bits. The
	// per-source sample streams are identical for every block size
	// (SampleSource's FillBlockAt contract), so the samples drawn, their
	// count and the verdict do not change with block. Mean and StdErr
	// can, in their last bits: the block size is also the sampler's
	// chunk size, and the chunks fix the order in which per-chunk
	// moments merge.
	block int
}

// digits is the significant-digit stability criterion of the paper's
// stopping rule: a check may stop once its running mean holds this many
// significant digits.
const digits = 3

// withDefaults fills zero fields with defaults.
func (o Options) withDefaults() Options {
	if o.MaxSamples == 0 {
		o.MaxSamples = 4_000_000
	}
	if o.MinSamples == 0 {
		o.MinSamples = 10_000
	}
	if o.CheckEvery == 0 {
		o.CheckEvery = 50_000
	}
	if o.Theta == 0 {
		o.Theta = 4
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return o
}

// Result reports the outcome of one NBL-SAT check (Algorithm 1).
type Result struct {
	// Satisfiable is the decision: true when the S_N mean is
	// significantly positive.
	Satisfiable bool
	// Mean is the final running mean of S_N.
	Mean float64
	// StdErr is the standard error of Mean.
	StdErr float64
	// ZScore is Mean/StdErr (0 when StdErr is 0 or not yet defined).
	ZScore float64
	// Samples is the number of noise samples consumed.
	Samples int64
	// Converged reports whether the significant-digit rule stopped the
	// run (as opposed to exhausting MaxSamples).
	Converged bool
}

func (r Result) String() string {
	verdict := "UNSAT"
	if r.Satisfiable {
		verdict = "SAT"
	}
	return fmt.Sprintf("%s mean=%.4g stderr=%.3g z=%.2f samples=%d converged=%v",
		verdict, r.Mean, r.StdErr, r.ZScore, r.Samples, r.Converged)
}

// Engine is a Monte-Carlo NBL-SAT solver for one formula. Engines are
// safe to reuse across (sequential) checks; each check re-seeds the
// cached per-worker noise banks to fresh streams, so repeated checks
// cost no bank or evaluator allocation.
type Engine struct {
	f        *cnf.Formula
	opts     Options
	checkSeq uint64        // distinct noise streams per check
	workers  []workerState // per-worker bank/evaluator, reused across checks
}

// ErrNoVariables is returned for formulas over zero variables.
var ErrNoVariables = errors.New("core: formula has no variables")

// NewEngine validates the formula and returns a Monte-Carlo engine.
func NewEngine(f *cnf.Formula, opts Options) (*Engine, error) {
	if f.NumVars < 1 {
		return nil, ErrNoVariables
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &Engine{f: f, opts: opts.withDefaults()}, nil
}

// Reset re-targets the engine at a new formula and seed, restoring the
// fresh-engine state (checkSeq restarts at zero, so a Reset engine is
// result-identical to NewEngine with the same Options under that
// Seed). When the new formula has the same (n, m) geometry as the old
// one, every worker's noise bank, evaluator, and block buffer are kept
// — the banks re-seed at every check anyway — which is the warm path a
// long-running solve service relies on to amortize the
// 2·n·m-generator bank across requests; a geometry change drops the
// workers and they rebuild lazily on the next check.
func (e *Engine) Reset(f *cnf.Formula, seed uint64) error {
	if f.NumVars < 1 {
		return ErrNoVariables
	}
	if err := f.Validate(); err != nil {
		return err
	}
	if f.NumVars == e.f.NumVars && f.NumClauses() == e.f.NumClauses() {
		for i := range e.workers {
			if e.workers[i].ev != nil {
				e.workers[i].ev.Reset(f)
			}
		}
	} else {
		e.workers = nil
	}
	e.f = f
	e.opts.Seed = seed
	e.checkSeq = 0
	return nil
}

// Options returns the engine's effective (defaulted) options.
func (e *Engine) Options() Options { return e.opts }

// Check runs Algorithm 1: a single-operation satisfiability check on the
// unreduced hyperspace.
func (e *Engine) Check() Result {
	return e.CheckBound(cnf.NewAssignment(e.f.NumVars))
}

// CheckCtx is Check with cancellation: the sampler polls ctx between
// convergence rounds and the partial Result plus ctx.Err() are returned
// when the context ends before the decision. A progress hook carried by
// ctx (solver.ContextWithProgress) observes every merged round.
func (e *Engine) CheckCtx(ctx context.Context) (Result, error) {
	return e.CheckBoundCtx(ctx, cnf.NewAssignment(e.f.NumVars))
}

// CheckBound runs Algorithm 1 on the hyperspace reduced by the given
// variable bindings (tau_N with bound variables fixed, Sigma_N
// untouched), the primitive that Algorithm 2 iterates.
func (e *Engine) CheckBound(bound cnf.Assignment) Result {
	r, _ := e.CheckBoundCtx(context.Background(), bound)
	return r
}

// CheckBoundCtx is CheckBound with cancellation.
func (e *Engine) CheckBoundCtx(ctx context.Context, bound cnf.Assignment) (Result, error) {
	// Degenerate formulas need no noise: no clauses means SAT (m >= 1 is
	// required by the bank); an empty clause is structurally UNSAT and
	// would only slow the sampler down (Sigma_N ≡ 0).
	if e.f.NumClauses() == 0 {
		return Result{Satisfiable: true, Converged: true}, nil
	}
	for _, c := range e.f.Clauses {
		if len(c) == 0 {
			return Result{Satisfiable: false, Converged: true}, nil
		}
	}

	e.checkSeq++
	return e.check(ctx, bound, e.checkSeq)
}

// check samples the engine's formula under bound with the noise streams
// of check seq and applies the Theta decision rule.
func (e *Engine) check(ctx context.Context, bound cnf.Assignment, seq uint64) (Result, error) {
	mean, stderr, samples, converged, err := e.sample(ctx, bound, seq)
	z := 0.0
	if stderr > 0 {
		z = mean / stderr
	}
	r := Result{
		Satisfiable: err == nil && z > e.opts.Theta,
		Mean:        mean,
		StdErr:      stderr,
		ZScore:      z,
		Samples:     samples,
		Converged:   converged,
	}
	return r, err
}

// MeanTrace runs the sampler on the unreduced hyperspace and records the
// running mean every `every` samples up to maxSamples, reproducing the
// data series of the paper's Figure 1. It uses a single worker so the
// trace is a true prefix-mean sequence.
func (e *Engine) MeanTrace(every, maxSamples int64) []TracePoint {
	e.checkSeq++
	ev := e.evaluator(cnf.NewAssignment(e.f.NumVars), e.checkSeq, 0)
	var w stats.Welford
	var out []TracePoint
	for i := int64(1); i <= maxSamples; i++ {
		w.Add(ev.StepAt(uint64(i - 1)).S)
		if i%every == 0 || i == maxSamples {
			out = append(out, TracePoint{Samples: i, Mean: w.Mean()})
		}
	}
	return out
}

// TracePoint is one point of a Figure-1-style running-mean series.
type TracePoint struct {
	Samples int64
	Mean    float64
}
