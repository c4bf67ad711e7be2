// Package noise implements the basis noise processes of noise-based
// logic (Definitions 7-9 of the paper): pairwise-independent, zero-mean
// stochastic processes sampled on a discrete time grid.
//
// The paper's reference realization draws each basis source uniformly
// from [-0.5, 0.5]. Section V points out that the same algebra works for
// other carriers — sinusoids [14,16] and Random Telegraph Waves [17] —
// and nothing in the mathematics pins the variance to 1/12. This package
// therefore exposes a Family enumeration:
//
//	UniformHalf  U[-0.5, 0.5]        sigma^2 = 1/12   (paper Section IV)
//	UniformUnit  U[-sqrt3, sqrt3]    sigma^2 = 1      (underflow-free)
//	Gaussian     N(0, 1)             sigma^2 = 1
//	RTW          ±1 equiprobable     sigma^2 = 1      (ref [17])
//
// UniformUnit and RTW keep E[S_N] = K' exactly (no sigma^(2nm) underflow
// for large n·m), which is the documented substitution behind the E6
// ablation in DESIGN.md.
package noise

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// sqrt3 is the half-width of the unit-variance uniform distribution.
var sqrt3 = math.Sqrt(3)

// Family identifies a basis noise source family.
type Family int

// Supported source families.
const (
	// UniformHalf draws from U[-0.5, 0.5]; the paper's Section IV choice.
	UniformHalf Family = iota
	// UniformUnit draws from U[-sqrt3, sqrt3], the variance-normalized
	// uniform family.
	UniformUnit
	// Gaussian draws from the standard normal distribution.
	Gaussian
	// RTW draws ±1 with equal probability: an instantaneous Random
	// Telegraph Wave sampled at its switching rate.
	RTW
	// Pulse is a sparse bipolar pulse train (references [18,19] of the
	// paper, "pulse-based logic"): with probability pulseDensity the
	// sample is ±pulseAmp (equiprobable sign), else 0. Amplitude is
	// chosen so the variance is 1; the sparse support raises the fourth
	// moment (kurtosis 1/density), making pulse trains the
	// worst-conditioned family in the E6 ablation — the price of
	// spike-coded carriers.
	Pulse
)

// Pulse train parameters: density 1/4, amplitude 2 gives
// sigma^2 = 0.25·4 = 1 and kurtosis = 0.25·16/1 = 4.
const (
	pulseDensity = 0.25
	pulseAmp     = 2.0
)

// String names the family.
func (f Family) String() string {
	switch f {
	case UniformHalf:
		return "uniform[-0.5,0.5]"
	case UniformUnit:
		return "uniform[-sqrt3,sqrt3]"
	case Gaussian:
		return "gaussian(0,1)"
	case RTW:
		return "rtw(±1)"
	case Pulse:
		return "pulse(p=1/4)"
	default:
		return fmt.Sprintf("family(%d)", int(f))
	}
}

// Sigma2 returns the family's per-sample variance E[X^2].
func (f Family) Sigma2() float64 {
	if f == UniformHalf {
		return 1.0 / 12
	}
	return 1
}

// Kurtosis returns E[X^4]/E[X^2]^2, which drives the variance of the
// self-correlation terms in S_N (Section III-F): 9/5 for uniforms, 3 for
// Gaussian, 1 for RTW. RTW's unit fourth moment is why telegraph waves
// give the tightest decision statistic in the E6 ablation.
func (f Family) Kurtosis() float64 {
	switch f {
	case UniformHalf, UniformUnit:
		return 9.0 / 5
	case Gaussian:
		return 3
	case RTW:
		return 1
	case Pulse:
		return 1 / pulseDensity
	default:
		return math.NaN()
	}
}

// Source is a stream of noise samples. Implementations are deterministic
// functions of their seed so experiments are reproducible.
type Source interface {
	// Next returns the next sample of the process.
	Next() float64
}

// counterSource replays a counter-addressed source sequentially: sample
// i is a pure function of (base, i), so the struct's only state is the
// next index. It emits exactly the stream a Bank produces for the
// source whose bank index equals the derivation key.
type counterSource struct {
	family   Family
	base     uint64
	next     uint64
	lo, span float64
}

func (s *counterSource) Next() float64 {
	i := s.next
	s.next++
	switch s.family {
	case UniformHalf, UniformUnit:
		return s.lo + float64(s.span*rng.Uniform01(s.base, i))
	case Gaussian:
		return gaussAt(s.base, i)
	case RTW:
		return rtwAt(s.base, i)
	case Pulse:
		return pulseAt(s.base, i)
	default:
		panic(fmt.Sprintf("noise: unknown family %d", int(s.family)))
	}
}

// NewSource returns an independent source of the given family, derived
// from (seed, key). Distinct keys give independent processes; a key
// equal to a bank source index replays that bank source's exact stream.
func NewSource(f Family, seed, key uint64) Source {
	s := &counterSource{family: f, base: rng.StreamBase(seed, key)}
	switch f {
	case UniformHalf:
		s.lo, s.span = -0.5, 1
	case UniformUnit:
		s.lo, s.span = -sqrt3, 2*sqrt3
	case Gaussian, RTW, Pulse:
	default:
		panic(fmt.Sprintf("noise: unknown family %d", int(f)))
	}
	return s
}

// Sinusoid is a deterministic sinusoidal carrier: amplitude * sqrt(2) *
// cos(2*pi*cycles*t/period + phase) sampled at integer t. Over a full
// common period, distinct-frequency sinusoids are pairwise orthogonal,
// which is the property Section V's sinusoid-based logic exploits. The
// sqrt(2) factor normalizes the mean square to amplitude^2.
type Sinusoid struct {
	Amplitude float64
	Cycles    int // frequency in cycles per Period samples
	Period    int // fundamental window length in samples
	Phase     float64
	t         int
}

// NewSinusoid returns a unit-RMS sinusoid completing cycles periods every
// period samples.
func NewSinusoid(cycles, period int) *Sinusoid {
	return &Sinusoid{Amplitude: 1, Cycles: cycles, Period: period}
}

// Next returns the next sample and advances time.
func (s *Sinusoid) Next() float64 {
	x := s.At(s.t)
	s.t++
	return x
}

// At returns the sample at time t without advancing the stream.
func (s *Sinusoid) At(t int) float64 {
	arg := 2*math.Pi*float64(s.Cycles)*float64(t)/float64(s.Period) + s.Phase
	return s.Amplitude * math.Sqrt2 * math.Cos(arg)
}

// Reset rewinds the sinusoid to t = 0.
func (s *Sinusoid) Reset() { s.t = 0 }

// Correlation estimates the correlation operator <a(t)b(t)> of the paper
// (Definition 7) over the given number of samples.
func Correlation(a, b Source, samples int) float64 {
	var sum float64
	for i := 0; i < samples; i++ {
		sum += float64(a.Next() * b.Next())
	}
	return sum / float64(samples)
}
