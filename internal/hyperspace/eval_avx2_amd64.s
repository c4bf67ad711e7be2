#include "textflag.h"

// AVX2 twins of the block evaluator's two portable kernels
// (eval_kernels.go). Each runs `lanes` samples, a positive multiple of
// its lane count that the Go dispatch guarantees, in lane groups of
// four samples, with unaligned loads and stores: rows start only 8-byte
// aligned in general.
//
// Bit-identity contract: per lane, each kernel performs exactly the
// floating-point operations of its portable body in the same order,
// using separate VMULPD/VADDPD instructions — never FMA, which would
// skip the intermediate rounding Go's unfused left-to-right evaluation
// performs. Multiplication and addition are bitwise commutative in
// IEEE 754, so operand order within one instruction is irrelevant; only
// the operation sequence matters, and it is the portable body's.

// func clauseAVX2(src *float64, first, stride, n int, lits *clauseLit, nlits int, slots, out *float64, lanes int)
//
// Per lane group, with variable v's 96-byte slot at slots+96v holding
// g_v at +0, pre_v at +32 and after_v at +64:
//   A. g_v = pos_v + neg_v for v = 0..n-1;
//   B. pre_{i+1} = pre_i·g_i and after_{n-2-i} = after_{n-1-i}·g_{n-1-i}
//      for i = 0..n-2: two independent chains, interleaved, from the
//      all-ones pre_0 and after_{n-1};
//   C. z = +0, then z += (lit·pre_v)·after_v per literal in clause
//      order, lit read from the literal's row;
//   D. out *= z.
//
// Registers: SI/DI the lane group's first positive/negative row, R8 the
// row stride, R10 the chain length n-1, R12/R9 the literal table and
// its end, R13/R14 the slots and their end, R15 the lane group's out,
// BX the lanes left, Y14 1.0.
TEXT ·clauseAVX2(SB), NOSPLIT, $0-72
	MOVQ  src+0(FP), SI
	MOVQ  first+8(FP), AX
	LEAQ  (SI)(AX*8), SI
	MOVQ  stride+16(FP), R8
	SHLQ  $3, R8
	MOVQ  n+24(FP), CX
	LEAQ  -1(CX), R10
	MOVQ  R8, AX
	IMULQ CX, AX
	LEAQ  (SI)(AX*1), DI          // the negative rows start n rows on
	MOVQ  lits+32(FP), R12
	MOVQ  nlits+40(FP), AX
	LEAQ  (R12)(AX*8), R9
	MOVQ  slots+48(FP), R13
	LEAQ  (CX)(CX*2), AX
	SHLQ  $5, AX                  // n·96
	LEAQ  (R13)(AX*1), R14
	MOVQ  out+56(FP), R15
	MOVQ  lanes+64(FP), BX
	MOVQ  $0x3ff0000000000000, AX
	VMOVQ AX, X14
	VPBROADCASTQ X14, Y14

lane:
	// A
	XORQ AX, AX                   // v·stride
	MOVQ R13, CX                  // slot v
	JMP  sourcesCheck

sources:
	VMOVUPD (SI)(AX*1), Y0
	VADDPD  (DI)(AX*1), Y0, Y0
	VMOVUPD Y0, (CX)
	ADDQ    R8, AX
	ADDQ    $96, CX

sourcesCheck:
	CMPQ CX, R14
	JNE  sources

	// B
	VMOVAPD Y14, Y5
	VMOVAPD Y14, Y6
	MOVQ    R13, CX               // slot i
	LEAQ    -96(R14), DX          // slot n-1-i
	MOVQ    R10, AX
	TESTQ   AX, AX
	JLE     chainsDone

chains:
	VMULPD  (CX), Y5, Y5
	VMOVUPD Y5, 128(CX)           // pre_{i+1}
	VMULPD  (DX), Y6, Y6
	VMOVUPD Y6, -32(DX)           // after_{n-2-i}
	ADDQ    $96, CX
	SUBQ    $96, DX
	DECQ    AX
	JNZ     chains

chainsDone:
	// C
	VXORPD Y7, Y7, Y7
	MOVQ   R12, AX
	JMP    litsCheck

lits:
	MOVLQSX (AX), CX              // row
	IMULQ   R8, CX
	MOVLQSX 4(AX), DX             // v
	LEAQ    (DX)(DX*2), DX
	SHLQ    $5, DX                // v·96
	VMOVUPD (SI)(CX*1), Y0
	VMULPD  32(R13)(DX*1), Y0, Y0
	VMULPD  64(R13)(DX*1), Y0, Y0
	VADDPD  Y0, Y7, Y7
	ADDQ    $8, AX

litsCheck:
	CMPQ AX, R9
	JNE  lits

	// D
	VMULPD  (R15), Y7, Y7
	VMOVUPD Y7, (R15)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R15
	SUBQ    $4, BX
	JNZ     lane
	VZEROUPPER
	RET

// func tauAVX2(src *float64, n, m, k int, bound *cnf.Value, out *float64, lanes int)
//
// Per lane: tau = 1; for v = 0..n-1, pp = 1 and pn = 1 times variable
// v's m positive and m negative sources in clause order, then tau *=
// pp (cnf.True), pn (cnf.False) or pp+pn (unbound); finally out =
// tau·out. Variable v's clause rows are consecutive, so one pointer
// walks every positive row in order, and the negative rows sit n·m rows
// further on. Four lane groups (16 samples) run at once, so the eight
// product chains hide the multiply latency; lanes must be a positive
// multiple of 16.
//
// Registers: R13 the 16 lanes' first positive row, DI the negative
// rows' offset, R11 the row stride, R8/R9 n/m, R12 the bindings, R15
// the lanes' out, BX the lanes left, Y9–Y12 the four taus, Y14 1.0; in
// the loops SI walks the rows, CX counts clauses and DX variables.
TEXT ·tauAVX2(SB), NOSPLIT, $0-56
	MOVQ  src+0(FP), R13
	MOVQ  n+8(FP), R8
	MOVQ  m+16(FP), R9
	MOVQ  k+24(FP), R11
	SHLQ  $3, R11
	MOVQ  R8, DI
	IMULQ R9, DI
	IMULQ R11, DI
	MOVQ  bound+32(FP), R12
	MOVQ  out+40(FP), R15
	MOVQ  lanes+48(FP), BX
	MOVQ  $0x3ff0000000000000, AX
	VMOVQ AX, X14
	VPBROADCASTQ X14, Y14

quad:
	VMOVAPD Y14, Y9
	VMOVAPD Y14, Y10
	VMOVAPD Y14, Y11
	VMOVAPD Y14, Y12
	MOVQ    R13, SI
	XORQ    DX, DX
	JMP     varsCheck

vars:
	VMOVAPD Y14, Y1
	VMOVAPD Y14, Y2
	VMOVAPD Y14, Y3
	VMOVAPD Y14, Y4
	VMOVAPD Y14, Y5
	VMOVAPD Y14, Y6
	VMOVAPD Y14, Y7
	VMOVAPD Y14, Y8
	MOVQ    R9, CX
	TESTQ   CX, CX
	JZ      select

prods:
	VMULPD (SI), Y1, Y1
	VMULPD 32(SI), Y2, Y2
	VMULPD 64(SI), Y3, Y3
	VMULPD 96(SI), Y4, Y4
	VMULPD (SI)(DI*1), Y5, Y5
	VMULPD 32(SI)(DI*1), Y6, Y6
	VMULPD 64(SI)(DI*1), Y7, Y7
	VMULPD 96(SI)(DI*1), Y8, Y8
	ADDQ   R11, SI
	DECQ   CX
	JNZ    prods

select:
	MOVBQSX (R12)(DX*1), AX
	CMPQ    AX, $2                // cnf.True
	JEQ     positive
	CMPQ    AX, $1                // cnf.False
	JEQ     negative
	VADDPD  Y5, Y1, Y1
	VADDPD  Y6, Y2, Y2
	VADDPD  Y7, Y3, Y3
	VADDPD  Y8, Y4, Y4

positive:
	VMULPD Y1, Y9, Y9
	VMULPD Y2, Y10, Y10
	VMULPD Y3, Y11, Y11
	VMULPD Y4, Y12, Y12
	JMP    next

negative:
	VMULPD Y5, Y9, Y9
	VMULPD Y6, Y10, Y10
	VMULPD Y7, Y11, Y11
	VMULPD Y8, Y12, Y12

next:
	INCQ DX

varsCheck:
	CMPQ    DX, R8
	JNE     vars
	VMULPD  (R15), Y9, Y9
	VMOVUPD Y9, (R15)
	VMULPD  32(R15), Y10, Y10
	VMOVUPD Y10, 32(R15)
	VMULPD  64(R15), Y11, Y11
	VMOVUPD Y11, 64(R15)
	VMULPD  96(R15), Y12, Y12
	VMOVUPD Y12, 96(R15)
	ADDQ    $128, R13
	ADDQ    $128, R15
	SUBQ    $16, BX
	JNZ     quad
	VZEROUPPER
	RET
