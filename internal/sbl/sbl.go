// Package sbl implements the Sinusoid-Based Logic variant of NBL-SAT
// discussed in Section V of the paper: the 2·n·m basis noise processes
// are replaced by deterministic sinusoidal carriers of distinct
// frequencies ([14], [16]), and the SAT decision reads the DC component
// of S_N over an observation window.
//
// Frequency allocation is the whole game. The decision statistic is a
// product of up to 2·n·m carriers, so every signed combination
// sum(eps_k · f_k) with eps_k in {-2,...,2} (squares appear through the
// self-correlation) acts as a potential alias of DC. Two allocators are
// provided:
//
//   - Geometric4: f_k = 4^k · f0. A nonzero digit in the balanced
//     base-4 expansion keeps every combination away from 0, so the DC
//     read-out is exact over a full common period — at the cost of a
//     bandwidth F/f0 = 4^(2nm-1). This makes rigorous the paper's
//     observation that minimizing the spacing f "remains an open
//     exercise": with sinusoids, collision-freedom costs exponential
//     bandwidth.
//   - Linear: f_k = (k+1) · f0, the allocation implicit in the paper's
//     "F/f variables" budget. Compact, but combination frequencies
//     collide (e.g. 2·f0 + f1 - f3 = 0 when f_k = k+1... and already
//     2f_1 = f_2 among squares), producing spurious DC that can corrupt
//     the decision. Experiment E7 measures exactly this tradeoff.
package sbl

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cnf"
	"repro/internal/hyperspace"
)

// Allocation selects a carrier frequency plan.
type Allocation int

// Supported allocations.
const (
	// Geometric4 spaces carriers at powers of four: collision-free,
	// exponential bandwidth.
	Geometric4 Allocation = iota
	// Linear spaces carriers at consecutive multiples of f0: linear
	// bandwidth, collision-prone.
	Linear
)

// String names the allocation.
func (a Allocation) String() string {
	switch a {
	case Geometric4:
		return "geometric4"
	case Linear:
		return "linear"
	default:
		return fmt.Sprintf("allocation(%d)", int(a))
	}
}

// Bandwidth returns the required oscillator bandwidth F/f0 (ratio of the
// highest carrier frequency to the spacing) for an instance with n
// variables and m clauses: the paper's key resource metric for an SBL
// engine.
func Bandwidth(n, m int, a Allocation) float64 {
	k := 2 * n * m
	switch a {
	case Geometric4:
		return math.Pow(4, float64(k-1))
	case Linear:
		return float64(k)
	default:
		return math.NaN()
	}
}

// Options configures an SBL engine.
type Options struct {
	// Alloc selects the frequency plan. Default Geometric4.
	Alloc Allocation
	// MaxSamples caps the observation window. When the full common
	// period fits under the cap the read-out is exact; otherwise the
	// window is truncated and spectral leakage adds noise. Default 1e6.
	MaxSamples int64
}

// threshold is the DC level above which the instance is declared SAT.
// Matched minterms contribute exactly 1 each, so 0.5 separates K' >= 1
// from 0 with maximal margin.
const threshold = 0.5

func (o Options) withDefaults() Options {
	if o.MaxSamples == 0 {
		o.MaxSamples = 1_000_000
	}
	return o
}

// carrierBank is a deterministic hyperspace.SampleSource backed by
// sinusoidal carriers: source k emits sqrt(2)·cos(2π·cycles[k]·t/period).
// The sample counter is literally the carrier time t, so the bank is
// stateless: any block at any base is a pure function of the frequency
// plan.
type carrierBank struct {
	n, m   int
	cycles []int64 // per source, layout (var*m+clause)*2+polarity
	period int64
}

func (b *carrierBank) Dims() (int, int) { return b.n, b.m }

// FillBlockAt evaluates every carrier at time steps base..base+k-1
// (hyperspace.SampleSource contract: source-major layout, addressable
// at any base since the carriers are pure functions of time).
func (b *carrierBank) FillBlockAt(base uint64, k int, pos, neg []float64) {
	nm := b.n * b.m
	for src := 0; src < nm; src++ {
		o := src * k
		for s := 0; s < k; s++ {
			t := base + uint64(s)
			pos[o+s] = b.atTime(2*src, t)
			neg[o+s] = b.atTime(2*src+1, t)
		}
	}
}

// atTime evaluates source idx at time t with exact integer phase
// reduction (cycles·t mod period), avoiding precision loss for large
// cycle counts.
func (b *carrierBank) atTime(idx int, t uint64) float64 {
	tm := int64(t % uint64(b.period))
	phase := (b.cycles[idx] % b.period) * tm % b.period
	return math.Sqrt2 * math.Cos(2*math.Pi*float64(phase)/float64(b.period))
}

// Engine is a deterministic SBL NBL-SAT engine.
type Engine struct {
	f      *cnf.Formula
	opts   Options
	period int64
	ev     *hyperspace.Evaluator
	bank   *carrierBank
	// block is the observation batch size, hyperspace.BlockSize of the
	// instance geometry (tests override it to prove verdict invariance).
	block int
}

// maxGeometricSources caps Geometric4 so cycle counts stay well inside
// int64 (4^k with 2nm = k <= 26 keeps period 2·4^k < 2^55).
const maxGeometricSources = 26

// New builds an SBL engine for f.
func New(f *cnf.Formula, opts Options) (*Engine, error) {
	n, m := f.NumVars, f.NumClauses()
	if n < 1 || m < 1 {
		return nil, fmt.Errorf("sbl: need n >= 1 and m >= 1, got (%d,%d)", n, m)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	k := 2 * n * m
	cycles := make([]int64, k)
	var period int64
	switch o.Alloc {
	case Geometric4:
		if k > maxGeometricSources {
			return nil, fmt.Errorf("sbl: geometric allocation supports 2nm <= %d sources, need %d",
				maxGeometricSources, k)
		}
		c := int64(1)
		for i := 0; i < k; i++ {
			cycles[i] = c
			c *= 4
		}
		period = 2 * c // 2·4^k: strictly above every |combination| sum
	case Linear:
		for i := 0; i < k; i++ {
			cycles[i] = int64(i + 1)
		}
		// All combinations lie within ±2·sum(f_k); choose the period
		// past that to avoid wrap-around aliases (collisions at exactly
		// zero remain, which is the allocator's documented defect).
		sum := int64(k) * int64(k+1) // 2 * k(k+1)/2
		period = 2*sum + 1
	default:
		return nil, fmt.Errorf("sbl: unknown allocation %v", o.Alloc)
	}

	bank := &carrierBank{n: n, m: m, cycles: cycles, period: period}
	return &Engine{
		f: f, opts: o, period: period, ev: hyperspace.New(f, bank), bank: bank,
		block: hyperspace.BlockSize(n, m),
	}, nil
}

// Period returns the common period of all carriers in samples; observing
// a full period makes the DC read-out exact (for a collision-free
// allocation).
func (e *Engine) Period() int64 { return e.period }

// Result reports an SBL check.
type Result struct {
	Satisfiable bool
	// Mean is the windowed DC estimate of S_N; for a full-period
	// collision-free run it equals the weighted model count K' exactly
	// (up to float rounding).
	Mean float64
	// Samples is the observation window length used.
	Samples int64
	// FullPeriod reports whether the window covered the carriers' full
	// common period (exact read-out).
	FullPeriod bool
}

// Check runs the SBL engine over min(Period, MaxSamples) samples and
// thresholds the DC estimate.
func (e *Engine) Check() Result {
	r, _ := e.CheckCtx(context.Background())
	return r
}

// CheckCtx is Check with cancellation: the observation loop walks the
// window t = 0..window-1 in e.block batches through the evaluator's
// block kernel and polls ctx at every block boundary, returning the
// partial window with ctx.Err() when the context ends.
// The DC accumulation order matches the scalar loop sample for sample,
// so results are unchanged by the batching — for any block size.
func (e *Engine) CheckCtx(ctx context.Context) (Result, error) {
	window := e.period
	full := true
	if window > e.opts.MaxSamples {
		window = e.opts.MaxSamples
		full = false
	}
	var sum float64
	buf := make([]float64, e.block)
	for i := int64(0); i < window; {
		if err := ctx.Err(); err != nil {
			partial := Result{Samples: i}
			if i > 0 {
				partial.Mean = sum / float64(i)
			}
			return partial, err
		}
		k := int64(len(buf))
		if rem := window - i; rem < k {
			k = rem
		}
		e.ev.StepBlockAt(uint64(i), buf[:k])
		for _, s := range buf[:k] {
			sum += s
		}
		i += k
	}
	mean := sum / float64(window)
	return Result{
		Satisfiable: mean > threshold,
		Mean:        mean,
		Samples:     window,
		FullPeriod:  full,
	}, nil
}

// Reset re-targets the engine at a new formula, restoring fresh-engine
// state (every check observes from t = 0, so only the formula and the
// bindings need replacing): a Reset engine is result-identical to
// New(f, opts) — the warm-path contract the engine lease pool relies
// on. The carriers are deterministic, so the seed, which the warm
// adapter hands every engine, is unused. When the (n, m) geometry
// matches, the carrier bank is kept verbatim (cycles and period depend
// only on 2·n·m and the allocation) and the evaluator re-targets in
// place; otherwise the engine is rebuilt, which can fail if the new
// geometry exceeds the allocator's bandwidth (same rule as New).
func (e *Engine) Reset(f *cnf.Formula, _ uint64) error {
	if f.NumVars != e.bank.n || f.NumClauses() != e.bank.m {
		fresh, err := New(f, e.opts)
		if err != nil {
			return err
		}
		*e = *fresh
		return nil
	}
	if err := f.Validate(); err != nil {
		return err
	}
	e.f = f
	e.ev.Reset(f)
	return nil
}
