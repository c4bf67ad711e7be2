package rng

// Every amd64 build carries the AVX2 fills; the CPUID+XGETBV check is
// the only thing that selects them. On a CPU or OS without AVX2 state
// the portable loops run instead, and they stay the conformance oracle
// the kernels are pinned bit-identical to.
var haveAVX2 = cpuHasAVX2()

// fillUniformAccel fills the largest multiple-of-4 prefix of dst with
// the AVX2 kernel and reports how many samples it wrote; FillUniformAt
// finishes the tail with the portable loop. Splitting is sound because
// samples are pure functions of (base, index) — the two kernels are
// pinned bit-identical, so any prefix/suffix mix yields the same bits.
func fillUniformAccel(base, start uint64, dst []float64, lo, span float64) int {
	n := len(dst) &^ 3
	if !haveAVX2 || n == 0 {
		return 0
	}
	fillUniformAVX2(base+(start+1)*golden, &dst[0], n, lo, span)
	return n
}

// fillRTWAccel is the same prefix/tail split for the RTW family. Its
// kernel shares the uniform fill's SplitMix64 counter lanes; only the
// final map from word to value differs (a sign-bit XOR).
func fillRTWAccel(base, start uint64, dst []float64) int {
	n := len(dst) &^ 3
	if !haveAVX2 || n == 0 {
		return 0
	}
	fillRTWAVX2(base+(start+1)*golden, &dst[0], n)
	return n
}

func hasAVX2() bool { return haveAVX2 }

// fillUniformAVX2 writes dst[s] = lo + span·(float64(mix64(state+s·golden)>>11)·2^-53)
// for s in [0, n). n must be a positive multiple of 4. Implemented in
// fill_avx2_amd64.s; bit-identical to fillUniformGo by construction
// (same integer mix, exact u64→f64 conversion, same rounding order:
// one multiply by 2^-53, one multiply by span, one add of lo).
//
//go:noescape
func fillUniformAVX2(state uint64, dst *float64, n int, lo, span float64)

// fillRTWAVX2 writes dst[s] = ±1 by the parity of mix64(state+s·golden)
// for s in [0, n). n must be a positive multiple of 4. The parity bit is
// shifted into the sign position and XORed onto -1.0, so no FP
// operation (and hence no rounding) is involved at all.
//
//go:noescape
func fillRTWAVX2(state uint64, dst *float64, n int)

// cpuHasAVX2 reports CPUID leaf-7 AVX2 with OSXSAVE/XCR0 YMM-state
// checks, i.e. whether the kernel may legally execute here.
func cpuHasAVX2() bool
