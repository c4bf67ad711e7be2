// Package rng provides deterministic, splittable pseudo-random number
// generation for the NBL-SAT simulator.
//
// The noise-based logic construction requires 2·m·n pairwise-independent
// noise processes (one per literal per clause). Reproducibility across
// runs — and across machines and Go versions — matters for the experiment
// harness, so this package implements its own generators rather than
// relying on math/rand's unspecified stream evolution:
//
//   - SplitMix64: a tiny, statistically strong 64-bit generator used for
//     key mixing (Steele, Lea, Flood 2014) and, evaluated by counter, as
//     the noise stream generator (counter.go).
//   - Xoshiro256** 1.0: the general-purpose sequential generator
//     (Blackman, Vigna 2018) behind instance generation and local search.
//
// Streams derived from distinct keys are independent for all practical
// purposes; the noise package builds one counter-addressed stream per
// (clause, variable, polarity) triple from a single experiment seed.
//
// Float results must also match across architectures. The Go spec lets
// a compiler fuse x*y + z into one rounding, and arm64's does, so every
// product that feeds a sum here (and in noise, hyperspace and stats) is
// wrapped in an explicit float64 conversion, which forbids the fusion.
package rng

import "math"

// golden is the 64-bit golden-ratio increment used by SplitMix64.
const golden = 0x9e3779b97f4a7c15

// mix64 advances a SplitMix64 state and returns the next output.
// It is the finalizer used for both seeding and key derivation.
func mix64(state uint64) uint64 {
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix folds any number of stream identifiers into seed through a chain
// of SplitMix64 finalizations and returns a well-mixed 64-bit key.
//
// Each step finalizes the identifier independently before folding it
// into the running hash, so for a fixed prefix the map from the next
// identifier to the result is a bijection: two derivations that differ
// only in one identifier can never collide, and derivations differing
// in several identifiers collide only with the ~2^-64 probability of a
// strong 64-bit hash. This is the key-derivation primitive behind
// per-(check, worker) noise streams; the naive XOR-of-products folding
// it replaced had systematic collisions across identifier pairs.
func Mix(seed uint64, keys ...uint64) uint64 {
	h := mix64(seed + golden)
	for _, k := range keys {
		h = mix64(h + golden + mix64(k+golden))
	}
	return h
}

// SplitMix64 is a 64-bit generator with a single word of state.
// Its zero value is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next 64-bit value in the sequence.
func (s *SplitMix64) Uint64() uint64 {
	s.state += golden
	return mix64(s.state)
}

// Xoshiro256 implements the xoshiro256** 1.0 generator.
// It has 256 bits of state, a period of 2^256-1, and passes BigCrush.
type Xoshiro256 struct {
	s0, s1, s2, s3 uint64
}

// New returns a Xoshiro256 generator seeded from seed via SplitMix64,
// per the reference seeding procedure.
func New(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	g := &Xoshiro256{
		s0: sm.Uint64(),
		s1: sm.Uint64(),
		s2: sm.Uint64(),
		s3: sm.Uint64(),
	}
	// The all-zero state is invalid; SplitMix64 cannot emit four zero
	// words in a row from any seed, so g is always valid here.
	return g
}

func rotl(x uint64, k uint) uint64 {
	return (x << k) | (x >> (64 - k))
}

// Uint64 returns the next 64-bit value in the sequence.
func (g *Xoshiro256) Uint64() uint64 {
	result := rotl(g.s1*5, 7) * 9
	t := g.s1 << 17
	g.s2 ^= g.s0
	g.s3 ^= g.s1
	g.s1 ^= g.s2
	g.s0 ^= g.s3
	g.s2 ^= t
	g.s3 = rotl(g.s3, 45)
	return result
}

// Float64 returns a uniformly distributed value in [0, 1) with 53 bits of
// precision, using the high bits of Uint64. Scaling multiplies by the
// exact power of two 2^-53 — bit-identical to dividing by 2^53, without
// the hardware divide on the sampling hot path.
func (g *Xoshiro256) Float64() float64 {
	return float64(g.Uint64()>>11) * 0x1p-53
}

// Uniform returns a uniformly distributed value in [lo, hi).
func (g *Xoshiro256) Uniform(lo, hi float64) float64 {
	return lo + float64((hi-lo)*g.Float64())
}

// Norm returns a standard normal variate generated by the polar
// (Marsaglia) method. Successive calls are independent; no state beyond
// the generator itself is kept, trading a little speed for simplicity.
func (g *Xoshiro256) Norm() float64 {
	for {
		u := 2*g.Float64() - 1
		v := 2*g.Float64() - 1
		s := float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (g *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	bound := uint64(n)
	for {
		x := g.Uint64()
		hi, lo := mul128(x, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	return a1*b1 + t>>32 + w1>>32, a * b
}

// Bool returns a uniformly distributed boolean.
func (g *Xoshiro256) Bool() bool {
	return g.Uint64()&1 == 1
}

// Perm returns a uniformly random permutation of [0, n) via Fisher-Yates.
func (g *Xoshiro256) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *Xoshiro256) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		swap(i, j)
	}
}
