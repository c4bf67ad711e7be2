// Package stats provides streaming statistics for the NBL-SAT simulator.
//
// The paper's SAT check (Algorithm 1) reduces to deciding whether the
// running mean of the observed process S_N(t) = tau_N(t)·Sigma_N(t) is
// zero or positive. Its experimental section runs "until the mean value
// of S_N has converged to the third significant digit or until 1e8 noise
// samples have been reached". This package supplies:
//
//   - Welford: numerically stable one-pass mean/variance accumulation;
//   - Convergence: the paper's significant-digit stopping rule;
//   - confidence-interval helpers used to turn a finite-sample mean into
//     the paper's idealized zero-vs-positive decision.
//
// Products that feed a sum are wrapped in float64(...) so no compiler
// fuses them into a multiply-add, and the accumulators come out
// bit-identical on every architecture.
package stats

import (
	"fmt"
	"math"
)

// Welford accumulates count, mean and variance in a single pass using
// Welford's algorithm. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64 // sum of squared deviations from the running mean
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += float64(delta * (x - w.mean))
}

// AddN incorporates all values in xs. For blocks it is the fast path of
// the block sampling kernel: the block's mean and squared deviations are
// accumulated in registers with a classic two-pass sweep (one division
// for the whole block instead of one per sample) and merged into w once
// via the parallel update. The result is deterministic for a fixed
// blocking, and the two-pass block moment is at least as accurate as the
// sequential update it replaces.
func (w *Welford) AddN(xs []float64) {
	if len(xs) < 4 {
		for _, x := range xs {
			w.Add(x)
		}
		return
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var m2 float64
	for _, x := range xs {
		d := x - mean
		m2 += float64(d * d)
	}
	w.Merge(Welford{n: int64(len(xs)), mean: mean, m2: m2})
}

// Merge combines another accumulator into w (Chan et al. parallel
// update). It lets worker goroutines accumulate privately and merge once.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n1, n2 := float64(w.n), float64(o.n)
	delta := o.mean - w.mean
	total := n1 + n2
	w.mean += delta * n2 / total
	w.m2 += o.m2 + delta*delta*n1*n2/total
	w.n += o.n
}

// Count returns the number of observations.
func (w *Welford) Count() int64 { return w.n }

// Mean returns the running mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance. It returns 0 for fewer
// than two observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean, sigma/sqrt(n).
func (w *Welford) StdErr() float64 {
	if w.n < 2 {
		return math.Inf(1)
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// String summarizes the accumulator for diagnostics.
func (w *Welford) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.6g", w.n, w.Mean(), w.StdDev())
}

// The stopping rule's stability criterion: the running mean must hold
// digits significant digits (the paper uses 3) for window consecutive
// checks, which guards against transient agreement.
const (
	digits = 3
	window = 4
)

// Convergence implements the paper's stopping rule: stop when the running
// mean has been stable to 3 significant digits for 4 consecutive checks
// (Check), or when MaxSamples observations have been seen (Exhausted).
// The two halves of the rule are reported separately so callers can
// distinguish a converged run from a budget-stopped one.
type Convergence struct {
	// MaxSamples is the hard observation budget (paper: 1e8).
	MaxSamples int64

	prev   float64
	stable int
	primed bool
}

// RoundSig rounds x to d significant digits. RoundSig(0, d) == 0.
func RoundSig(x float64, d int) float64 {
	if x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		return x
	}
	mag := math.Pow(10, float64(d-1)-math.Floor(math.Log10(math.Abs(x))))
	return math.Round(x*mag) / mag
}

// Check reports whether the running mean has been stable to 3
// significant digits for 4 consecutive calls. Call it periodically
// (not necessarily every sample); each call is one stability check.
//
// Check reports stability ONLY. The sample budget is a separate signal —
// callers test Exhausted (or their own loop bound) themselves, so
// "converged" and "budget-stopped" are never conflated the way the old
// combined return forced them to be.
func (c *Convergence) Check(mean float64) bool {
	cur := RoundSig(mean, digits)
	if c.primed && cur == c.prev {
		c.stable++
	} else {
		c.stable = 0
	}
	c.prev = cur
	c.primed = true
	return c.stable >= window
}

// Exhausted reports whether n observations meet or exceed the MaxSamples
// budget (always false when no budget is configured).
func (c *Convergence) Exhausted(n int64) bool {
	return c.MaxSamples > 0 && n >= c.MaxSamples
}

// Mean returns the arithmetic mean of xs (NaN for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 if len < 2).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }
