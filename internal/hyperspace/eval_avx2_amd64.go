package hyperspace

import (
	"unsafe"

	"repro/internal/cnf"
	"repro/internal/rng"
)

// amd64: each kernel runs its assembly twin over a prefix of the block
// and the portable body over the tail: the clause kernel over the first
// k&^3 samples, four at a time, and the tau kernel over the first k&^15,
// sixteen at a time (every block the sampler cuts from a power-of-two
// BlockSize is a multiple of 16). The assembly uses separate
// VMULPD/VADDPD instructions in eval's order — never FMA — so every lane
// is bit-identical to the portable body, which TestKernelsMatchPortable
// asserts. The CPU gate is shared with the rng fill kernels: one
// CPUID+XGETBV probe decides both.
var evalHaveAVX2 = rng.HasAVX2()

// clauseAVX2 is clauseGo over samples [0, lanes) of a block whose rows
// hold k samples: the clause's first source row starts first floats
// into src, and stride = m·k is the distance between the clause's
// variable rows. lanes must be a positive multiple of 4.
//
//go:noescape
func clauseAVX2(src *float64, first, stride, n int, lits *clauseLit, nlits int, slots, out *float64, lanes int)

// tauAVX2 is tauGo over samples [0, lanes) of a block of n variables, m
// clauses and k samples per row; bound points at 0-based variable 0's
// binding. lanes must be a positive multiple of 16.
//
//go:noescape
func tauAVX2(src *float64, n, m, k int, bound *cnf.Value, out *float64, lanes int)

// clauseKernel runs clause j's kernel over the whole block.
func clauseKernel(b *blockScratch, j int, lits []clauseLit, out []float64) {
	lanes := 0
	if evalHaveAVX2 {
		lanes = len(out) &^ 3
	}
	if lanes > 0 {
		clauseAVX2(unsafe.SliceData(b.src), j*b.k, b.m*b.k, b.n, unsafe.SliceData(lits), len(lits),
			unsafe.SliceData(b.slots), &out[0], lanes)
	}
	clauseGo(b, j, lits, out, lanes, len(out))
}

// tauKernel runs the tau kernel over the whole block.
func tauKernel(b *blockScratch, bound []cnf.Value, out []float64) {
	lanes := 0
	if evalHaveAVX2 {
		lanes = len(out) &^ 15
	}
	if lanes > 0 {
		tauAVX2(unsafe.SliceData(b.src), b.n, b.m, b.k, unsafe.SliceData(bound), &out[0], lanes)
	}
	tauGo(b, bound, out, lanes, len(out))
}
