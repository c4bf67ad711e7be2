//go:build !amd64

package rng

// The no-acceleration stubs: each fills nothing and lets the Fill*At
// entry points run the portable loops. On amd64 the AVX2 kernels
// replace them.

func fillUniformAccel(base, start uint64, dst []float64, lo, span float64) int {
	return 0
}

func fillRTWAccel(base, start uint64, dst []float64) int {
	return 0
}

func hasAVX2() bool { return false }
