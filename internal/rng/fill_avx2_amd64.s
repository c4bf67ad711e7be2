#include "textflag.h"

// Counter-stream AVX2 fill: four SplitMix64 counter lanes per iteration.
//
// Lane s of iteration t holds state + (4t+s)·golden; each lane runs the
// mix64 finalizer (two xorshift-multiply rounds), takes the top 53 bits,
// converts exactly to float64 via the classic split-magic trick (valid
// for any v < 2^53), and applies lo + span·(v·2^-53) with the same
// three-rounding sequence as the pure-Go loop — so the output bits are
// identical to fillUniformGo's by construction.
//
// AVX2 has no 64-bit lane multiply (VPMULLQ is AVX-512), so z*C is
// synthesized from three VPMULUDQ 32x32→64 products:
//   lo(z)*lo(C) + ((hi(z)*lo(C) + lo(z)*hi(C)) << 32)

// Multiply constants of the SplitMix64 finalizer, and their high words
// (VPMULUDQ reads only the low 32 bits of each 64-bit lane).
DATA mulc1<>+0(SB)/8, $0xbf58476d1ce4e5b9
GLOBL mulc1<>(SB), RODATA, $8
DATA mulc1hi<>+0(SB)/8, $0x00000000bf58476d
GLOBL mulc1hi<>(SB), RODATA, $8
DATA mulc2<>+0(SB)/8, $0x94d049bb133111eb
GLOBL mulc2<>(SB), RODATA, $8
DATA mulc2hi<>+0(SB)/8, $0x0000000094d049bb
GLOBL mulc2hi<>(SB), RODATA, $8

// Per-lane counter offsets [0, golden, 2·golden, 3·golden] and the
// per-iteration stride 4·golden (all mod 2^64).
DATA laneoff<>+0(SB)/8, $0x0000000000000000
DATA laneoff<>+8(SB)/8, $0x9e3779b97f4a7c15
DATA laneoff<>+16(SB)/8, $0x3c6ef372fe94f82a
DATA laneoff<>+24(SB)/8, $0xdaa66d2c7ddf743f
GLOBL laneoff<>(SB), RODATA, $32
DATA stride4<>+0(SB)/8, $0x78dde6e5fd29f054
GLOBL stride4<>(SB), RODATA, $8

// u64→f64 magic constants: bit patterns of 2^52 and 2^84, and the
// double 2^52 + 2^84 subtracted to recombine the halves exactly.
DATA magic52<>+0(SB)/8, $0x4330000000000000
GLOBL magic52<>(SB), RODATA, $8
DATA magic84<>+0(SB)/8, $0x4530000000000000
GLOBL magic84<>(SB), RODATA, $8
DATA magicsub<>+0(SB)/8, $0x4530000000100000
GLOBL magicsub<>(SB), RODATA, $8

// The exact scale 2^-53 applied before span/lo.
DATA scale53<>+0(SB)/8, $0x3ca0000000000000
GLOBL scale53<>(SB), RODATA, $8

// func fillUniformAVX2(state uint64, dst *float64, n int, lo, span float64)
TEXT ·fillUniformAVX2(SB), NOSPLIT, $0-40
	MOVQ state+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ n+16(FP), CX

	VPBROADCASTQ mulc1<>(SB), Y4
	VPBROADCASTQ mulc1hi<>(SB), Y5
	VPBROADCASTQ mulc2<>(SB), Y6
	VPBROADCASTQ mulc2hi<>(SB), Y7
	VPBROADCASTQ stride4<>(SB), Y8
	VPBROADCASTQ magic52<>(SB), Y9
	VPBROADCASTQ magic84<>(SB), Y10
	VPBROADCASTQ magicsub<>(SB), Y11
	VPBROADCASTQ scale53<>(SB), Y12
	VBROADCASTSD span+32(FP), Y13
	VBROADCASTSD lo+24(FP), Y14

	// states = broadcast(state) + [0, g, 2g, 3g]
	VMOVQ AX, X0
	VPBROADCASTQ X0, Y0
	VPADDQ laneoff<>(SB), Y0, Y0

loop:
	VMOVDQA Y0, Y1

	// z ^= z >> 30
	VPSRLQ $30, Y1, Y2
	VPXOR Y2, Y1, Y1
	// z *= 0xbf58476d1ce4e5b9
	VPSRLQ $32, Y1, Y2
	VPMULUDQ Y4, Y2, Y2
	VPMULUDQ Y5, Y1, Y3
	VPADDQ Y3, Y2, Y2
	VPSLLQ $32, Y2, Y2
	VPMULUDQ Y4, Y1, Y1
	VPADDQ Y2, Y1, Y1
	// z ^= z >> 27
	VPSRLQ $27, Y1, Y2
	VPXOR Y2, Y1, Y1
	// z *= 0x94d049bb133111eb
	VPSRLQ $32, Y1, Y2
	VPMULUDQ Y6, Y2, Y2
	VPMULUDQ Y7, Y1, Y3
	VPADDQ Y3, Y2, Y2
	VPSLLQ $32, Y2, Y2
	VPMULUDQ Y6, Y1, Y1
	VPADDQ Y2, Y1, Y1
	// z ^= z >> 31
	VPSRLQ $31, Y1, Y2
	VPXOR Y2, Y1, Y1

	// v = z >> 11: the 53 significant bits
	VPSRLQ $11, Y1, Y1

	// Exact u64→f64 (v < 2^53): low dwords as 2^52+lo, high dwords as
	// 2^84+hi·2^32, then (hiD - (2^84+2^52)) + loD == float64(v).
	VPBLENDD $0xaa, Y9, Y1, Y2
	VPSRLQ $32, Y1, Y3
	VPOR Y10, Y3, Y3
	VSUBPD Y11, Y3, Y3
	VADDPD Y2, Y3, Y1

	// lo + span·(v·2^-53) — separate VMULPD/VADDPD, never FMA, to keep
	// the three roundings of the Go expression.
	VMULPD Y12, Y1, Y1
	VMULPD Y13, Y1, Y1
	VADDPD Y14, Y1, Y1
	VMOVUPD Y1, (DI)

	ADDQ $32, DI
	VPADDQ Y8, Y0, Y0
	SUBQ $4, CX
	JNE loop

	VZEROUPPER
	RET

// MIX64 runs the SplitMix64 finalizer on the four lanes of z, using t1
// and t2 as scratch. It assumes Y4/Y5 and Y6/Y7 hold the two multiply
// constants and their high words (the same layout every fill kernel
// broadcasts in its prologue) — the identical instruction sequence the
// uniform kernel spells out above.
#define MIX64(z, t1, t2) \
	VPSRLQ $30, z, t1      \
	VPXOR t1, z, z         \
	VPSRLQ $32, z, t1      \
	VPMULUDQ Y4, t1, t1    \
	VPMULUDQ Y5, z, t2     \
	VPADDQ t2, t1, t1      \
	VPSLLQ $32, t1, t1     \
	VPMULUDQ Y4, z, z      \
	VPADDQ t1, z, z        \
	VPSRLQ $27, z, t1      \
	VPXOR t1, z, z         \
	VPSRLQ $32, z, t1      \
	VPMULUDQ Y6, t1, t1    \
	VPMULUDQ Y7, z, t2     \
	VPADDQ t2, t1, t1      \
	VPSLLQ $32, t1, t1     \
	VPMULUDQ Y6, z, z      \
	VPADDQ t1, z, z        \
	VPSRLQ $31, z, t1      \
	VPXOR t1, z, z

// Bit pattern of -1.0: the RTW fill's base value, sign-flipped to +1.0
// by the word's parity bit.
DATA negone<>+0(SB)/8, $0xbff0000000000000
GLOBL negone<>(SB), RODATA, $8

// func fillRTWAVX2(state uint64, dst *float64, n int)
//
// dst[s] = -1.0 XOR (parity(mix64(state+s·golden)) << 63): parity 1
// flips the sign to +1.0. Integer ops and one XOR — no rounding exists
// for the Go oracle to disagree with.
TEXT ·fillRTWAVX2(SB), NOSPLIT, $0-24
	MOVQ state+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ n+16(FP), CX

	VPBROADCASTQ mulc1<>(SB), Y4
	VPBROADCASTQ mulc1hi<>(SB), Y5
	VPBROADCASTQ mulc2<>(SB), Y6
	VPBROADCASTQ mulc2hi<>(SB), Y7
	VPBROADCASTQ stride4<>(SB), Y8
	VPBROADCASTQ negone<>(SB), Y9

	// states = broadcast(state) + [0, g, 2g, 3g]
	VMOVQ AX, X0
	VPBROADCASTQ X0, Y0
	VPADDQ laneoff<>(SB), Y0, Y0

rtwloop:
	VMOVDQA Y0, Y1
	MIX64(Y1, Y2, Y3)

	// parity bit -> sign position, XOR onto -1.0
	VPSLLQ $63, Y1, Y1
	VPXOR Y9, Y1, Y1
	VMOVUPD Y1, (DI)

	ADDQ $32, DI
	VPADDQ Y8, Y0, Y0
	SUBQ $4, CX
	JNE rtwloop

	VZEROUPPER
	RET

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	// CPUID must reach leaf 7.
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT none
	// Leaf 1 ECX: OSXSAVE (bit 27) and AVX (bit 28).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $(1<<27 | 1<<28), R8
	CMPL R8, $(1<<27 | 1<<28)
	JNE none
	// XCR0 bits 1..2: XMM and YMM state enabled by the OS.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE none
	// Leaf 7 subleaf 0 EBX bit 5: AVX2.
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET
none:
	MOVB $0, ret+0(FP)
	RET
