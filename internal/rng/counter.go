package rng

// The stream contract: counter-based stateless generation.
//
// Every noise stream is a pure function of coordinates:
//
//	Word(StreamBase(seed, src), i)
//
// is sample i of source src under seed, computed directly — no state,
// no ordering requirement. The generator is SplitMix64 evaluated by
// counter: a SplitMix64 seeded with base emits mix64(base + golden),
// mix64(base + 2·golden), ... on successive calls, so
// Word(base, i) = mix64(base + (i+1)·golden) reproduces exactly the
// (i+1)-th output of NewSplitMix64(base) while being addressable at any
// index. SplitMix64 passes BigCrush and its outputs for distinct
// counters are exactly the generator's own outputs, so statistical
// quality matches the sequential use of the same generator.
//
// Because every sample is independent, bulk fills are embarrassingly
// data-parallel: FillUniformAt below is the scalar contract, with an
// AVX2 kernel on amd64 (taken when CPUID reports AVX2) that is pinned
// bit-identical to the pure-Go loop — the Go path is the conformance
// oracle, not the other way around.

// StreamBase derives the stream base for source src under seed.
// It is Mix(seed, src): injective in src for a fixed seed, so distinct
// sources can never share a base.
func StreamBase(seed, src uint64) uint64 {
	return Mix(seed, src)
}

// Word returns sample i of the word stream with the given base:
// the output a SplitMix64 seeded with base would produce on its
// (i+1)-th call, computed directly from the coordinates.
func Word(base, i uint64) uint64 {
	return mix64(base + (i+1)*golden)
}

// Uniform01 maps sample i of the stream to [0, 1) with 53 bits of
// precision, using the same high-bits scaling as Xoshiro256.Float64.
// The outer conversion keeps the scaling a separately rounded product
// when the call is inlined into a sum (gaussAt's 1-u), so no compiler
// fuses it into a multiply-add.
func Uniform01(base, i uint64) float64 {
	return float64(float64(Word(base, i)>>11) * 0x1p-53)
}

// FillUniformAt writes dst[s] = lo + span·U(base, start+s) for
// s in [0, len(dst)), where U is Uniform01. Sample values depend only
// on (base, index): disjoint index ranges may be filled concurrently,
// in any order, by any mix of the accelerated and pure-Go paths — the
// results are bit-identical.
func FillUniformAt(base, start uint64, dst []float64, lo, span float64) {
	done := fillUniformAccel(base, start, dst, lo, span)
	if done < len(dst) {
		fillUniformGo(base, start+uint64(done), dst[done:], lo, span)
	}
}

// fillUniformGo is the portable fill and the conformance oracle for the
// assembly kernel. The loop carries only the trivially predictable
// state += golden recurrence; the mix chains of successive iterations
// are independent, so the CPU pipelines them. The float64 conversion
// around span·u forbids fusing it with the add of lo (arm64 would),
// keeping the kernel's three roundings on every architecture.
func fillUniformGo(base, start uint64, dst []float64, lo, span float64) {
	state := base + (start+1)*golden
	for s := range dst {
		z := state
		state += golden
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		dst[s] = lo + float64(span*(float64(z>>11)*0x1p-53))
	}
}

// FillRTWAt writes dst[s] = ±1 by the parity of Word(base, start+s) for
// s in [0, len(dst)) — the bulk form of the random-telegraph-wave
// sample (noise.RTW). The same seekability contract as FillUniformAt
// applies: values depend only on (base, index), so any split between
// the accelerated and portable paths is bit-identical. It is in fact
// exact in a stronger sense than the uniform fill: ±1 is a pure
// sign-bit map of an integer parity, so no floating-point rounding
// occurs at all.
func FillRTWAt(base, start uint64, dst []float64) {
	done := fillRTWAccel(base, start, dst)
	if done < len(dst) {
		fillRTWGo(base, start+uint64(done), dst[done:])
	}
}

// fillRTWGo is the portable RTW fill and the conformance oracle for the
// assembly kernel: the parity bit of the mixed word selects ±1.
func fillRTWGo(base, start uint64, dst []float64) {
	state := base + (start+1)*golden
	for s := range dst {
		z := state
		state += golden
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		if z&1 == 1 {
			dst[s] = 1
		} else {
			dst[s] = -1
		}
	}
}

// FillPulseAt writes the pulse-train samples for indices
// start..start+len(dst)-1 of the stream with the given base: sample s is
// 0 when the word's top-53-bit uniform is >= density, otherwise ±amp by
// the word's parity bit (noise.Pulse semantics, parameterized so rng
// stays family-agnostic). Same seekability contract as FillUniformAt.
// It has no accelerated kernel: the pulse family is reached only by
// the E6 noise-family ablation, which no benchmark workload samples,
// so this portable loop is the one implementation.
func FillPulseAt(base, start uint64, dst []float64, density, amp float64) {
	state := base + (start+1)*golden
	for s := range dst {
		z := state
		state += golden
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		switch {
		case float64(z>>11)*0x1p-53 >= density:
			dst[s] = 0
		case z&1 == 1:
			dst[s] = amp
		default:
			dst[s] = -amp
		}
	}
}

// FillAccelName names the vector-kernel tier of this process: "avx2" on
// amd64 when the CPU supports it, "none" otherwise. One gate, HasAVX2,
// selects both the bulk fills (FillUniformAt, FillRTWAt) and the
// hyperspace evaluator's clause and tau kernels, so the name covers
// both. The tiers give the same bits, so no result records it;
// nblserve's /healthz reports it.
func FillAccelName() string {
	if hasAVX2() {
		return "avx2"
	}
	return "none"
}

// HasAVX2 reports whether this is an amd64 build and the CPU/OS support
// executing AVX2. Other packages with their own amd64 assembly (the
// hyperspace evaluator) share this one CPUID+XGETBV gate instead of
// duplicating it.
func HasAVX2() bool {
	return hasAVX2()
}
