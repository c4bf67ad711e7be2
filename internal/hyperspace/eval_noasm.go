//go:build !amd64

package hyperspace

import "repro/internal/cnf"

// Other architectures: both kernels are the portable bodies over the
// whole block, the same bodies the amd64 dispatch falls back to without
// AVX2 and pins its assembly against (TestKernelsMatchPortable); the
// block property tests compare StepBlockAt to per-sample StepAt, which
// runs the scalar kernel on every build.

func clauseKernel(b *blockScratch, j int, lits []clauseLit, out []float64) {
	clauseGo(b, j, lits, out, 0, len(out))
}

func tauKernel(b *blockScratch, bound []cnf.Value, out []float64) {
	tauGo(b, bound, out, 0, len(out))
}
