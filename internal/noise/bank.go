package noise

import "repro/internal/rng"

// Bank is the full complement of 2·m·n independent basis noise sources
// required by the NBL-SAT transformation of Section III-C: for each of
// the n variables and each of the m clauses, one source for the positive
// literal (N^j_{x_i}) and one for the negative literal (N^j_{!x_i}).
//
// FillBlockAt draws a whole block from every source directly into
// caller-provided matrices, which is the hot path of the Monte-Carlo
// engine (2·n·m draws per S_N sample); a Source with the same key reads
// the same stream one sample at a time through the same sampler. The
// bank is stateless: sample i of source src is a pure function of
// (seed, src, i) — rng.Word(rng.StreamBase(seed, src), i) — so any
// sample of any source is addressable directly and disjoint sample
// ranges may be filled in any order, the property behind the sampler's
// worker-count-invariant range claiming.
type Bank struct {
	sampler
	n, m int
	// bases holds the counter-stream base per source; index layout is
	// (var*m + clause)*2 + polarity with var, clause 0-based and
	// polarity 0 for the positive literal, 1 for the negative.
	bases []uint64
}

// NewBank creates the source bank for an instance with n variables and m
// clauses. Each source's stream is derived from the experiment seed and
// the source's (variable, clause, polarity) coordinates, so any two
// banks with the same arguments produce identical sample sequences.
func NewBank(f Family, seed uint64, n, m int) *Bank {
	if n < 1 || m < 1 {
		panic("noise: bank requires n >= 1 and m >= 1")
	}
	b := &Bank{sampler: newSampler(f), n: n, m: m, bases: make([]uint64, 2*n*m)}
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
	for src := 0; src < nm; src++ {
		o := src * k
		b.fill(b.bases[2*src], base, pos[o:o+k])
		b.fill(b.bases[2*src+1], base, neg[o:o+k])
	}
}
