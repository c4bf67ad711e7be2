package noise

import (
	"math"

	"repro/internal/rng"
)

// Bank is the full complement of 2·m·n independent basis noise sources
// required by the NBL-SAT transformation of Section III-C: for each of
// the n variables and each of the m clauses, one source for the positive
// literal (N^j_{x_i}) and one for the negative literal (N^j_{!x_i}).
//
// Bank bypasses the Source interface for throughput: FillBlockAt draws a
// whole block from every source directly into caller-provided matrices,
// which is the hot path of the Monte-Carlo engine (2·n·m draws per S_N
// sample). The bank is stateless: sample i of source src is a pure
// function of (seed, src, i) — rng.Word(rng.StreamBase(seed, src), i) —
// so any sample of any source is addressable directly and disjoint
// sample ranges may be filled in any order, the property behind the
// sampler's worker-count-invariant range claiming.
type Bank struct {
	family Family
	n, m   int
	// bases holds the counter-stream base per source; index layout is
	// (var*m + clause)*2 + polarity with var, clause 0-based and
	// polarity 0 for the positive literal, 1 for the negative.
	bases []uint64
	lo    float64 // uniform parameters, unused for other families
	span  float64
}

// NewBank creates the source bank for an instance with n variables and m
// clauses. Each source's stream is derived from the experiment seed and
// the source's (variable, clause, polarity) coordinates, so any two
// banks with the same arguments produce identical sample sequences.
func NewBank(f Family, seed uint64, n, m int) *Bank {
	if n < 1 || m < 1 {
		panic("noise: bank requires n >= 1 and m >= 1")
	}
	b := &Bank{family: f, n: n, m: m, bases: make([]uint64, 2*n*m)}
	switch f {
	case UniformHalf:
		b.lo, b.span = -0.5, 1
	case UniformUnit:
		b.lo, b.span = -sqrt3, 2*sqrt3
	case Gaussian, RTW, Pulse:
	default:
		panic("noise: unknown family")
	}
	b.Reseed(seed)
	return b
}

// Reseed re-derives every source's stream from seed in place, without
// reallocating the bank. A reseeded bank is indistinguishable from
// NewBank(family, seed, n, m); the Monte-Carlo engine uses this to
// reuse one bank (and its evaluator scratch) across decision checks
// instead of rebuilding 2·n·m streams per check.
func (b *Bank) Reseed(seed uint64) {
	for idx := range b.bases {
		b.bases[idx] = rng.StreamBase(seed, uint64(idx))
	}
}

// Dims returns (n, m).
func (b *Bank) Dims() (n, m int) { return b.n, b.m }

// FillBlockAt draws samples base..base+k-1 of every source. pos and neg
// must each have length k*n*m in source-major layout: entry
// [(i*m+j)*k + s] holds sample base+s of the source for variable i+1 in
// clause j (0-based i, j).
//
// The call is a pure function of (bank seed, base, k): any block of any
// source is addressable directly, blocks may be requested in any order,
// and disjoint ranges may be filled concurrently from separate
// goroutines holding separate buffers.
func (b *Bank) FillBlockAt(base uint64, k int, pos, neg []float64) {
	nm := b.n * b.m
	if len(pos) != nm*k || len(neg) != nm*k {
		panic("noise: FillBlockAt buffer length must be k*n*m")
	}
	if k == 0 {
		return
	}
	switch b.family {
	case UniformHalf, UniformUnit:
		// The hot path: each source is one bulk counter fill, which the
		// rng package data-parallelizes (AVX2 on capable amd64 CPUs).
		lo, span := b.lo, b.span
		for src := 0; src < nm; src++ {
			o := src * k
			rng.FillUniformAt(b.bases[2*src], base, pos[o:o+k], lo, span)
			rng.FillUniformAt(b.bases[2*src+1], base, neg[o:o+k], lo, span)
		}
	case Gaussian:
		for src := 0; src < nm; src++ {
			bp, bn := b.bases[2*src], b.bases[2*src+1]
			o := src * k
			for s := 0; s < k; s++ {
				i := base + uint64(s)
				pos[o+s] = gaussAt(bp, i)
				neg[o+s] = gaussAt(bn, i)
			}
		}
	case RTW:
		// Bulk sign-map fill, one word per sample (AVX2 on capable
		// amd64 CPUs); bit-identical to the per-sample rtwAt by contract.
		for src := 0; src < nm; src++ {
			o := src * k
			rng.FillRTWAt(b.bases[2*src], base, pos[o:o+k])
			rng.FillRTWAt(b.bases[2*src+1], base, neg[o:o+k])
		}
	case Pulse:
		// Bulk threshold-map fill, one word per sample, portable only;
		// bit-identical to the per-sample pulseAt by contract.
		for src := 0; src < nm; src++ {
			o := src * k
			rng.FillPulseAt(b.bases[2*src], base, pos[o:o+k], pulseDensity, pulseAmp)
			rng.FillPulseAt(b.bases[2*src+1], base, neg[o:o+k], pulseDensity, pulseAmp)
		}
	default:
		panic("noise: unknown family")
	}
}

// gaussAt is the Gaussian sample: a fixed-draw Box–Muller transform
// over words (2i, 2i+1) of the source's counter stream. A rejection
// method (Marsaglia's polar) would consume a data-dependent number of
// draws and so could not be addressed by counter; Box–Muller spends
// exactly two words per sample. 1-u1 lies in (0, 1], keeping the log
// finite.
func gaussAt(base, i uint64) float64 {
	u1 := rng.Uniform01(base, 2*i)
	u2 := rng.Uniform01(base, 2*i+1)
	return math.Sqrt(-2*math.Log(1-u1)) * math.Cos(2*math.Pi*u2)
}

// rtwAt is the telegraph-wave sample: the parity of word i.
func rtwAt(base, i uint64) float64 {
	if rng.Word(base, i)&1 == 1 {
		return 1
	}
	return -1
}

// pulseAt is the pulse-train sample from the single word i: the top
// 53 bits decide occupancy against pulseDensity, bit 0 the sign.
func pulseAt(base, i uint64) float64 {
	w := rng.Word(base, i)
	if float64(w>>11)*0x1p-53 >= pulseDensity {
		return 0
	}
	if w&1 == 1 {
		return pulseAmp
	}
	return -pulseAmp
}
