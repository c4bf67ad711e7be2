package hyperspace

// Portable row kernels for the block evaluator. StepBlockAt is, per
// sample, a fixed sequence of elementwise row operations over the SoA
// scratch; these eight primitives are that sequence's vocabulary. Each
// states its exact association order in its name-comment — the order is
// the contract, because the scalar kernel (eval) is the conformance
// oracle. Go evaluates product chains left to right, and every product
// that feeds a sum is wrapped in an explicit float64 conversion, which
// the spec says forbids fusing it into a multiply-add (arm64 would).
// On AVX2 hardware a vector loop replaces the bulk of each row,
// performing the same operations in the same per-element order
// (separate multiply and add instructions, never FMA), so results stay
// bit-identical across architectures; these portable bodies remain the
// tail path for the last len%4 lanes and the whole row elsewhere.

// mulToGo: dst[s] = a[s] * b[s].
func mulToGo(dst, a, b []float64) {
	for s := range dst {
		dst[s] = a[s] * b[s]
	}
}

// mulPairGo: dst[s] = (dst[s] * a[s]) * b[s].
func mulPairGo(dst, a, b []float64) {
	for s := range dst {
		dst[s] = dst[s] * a[s] * b[s]
	}
}

// mulGo: dst[s] *= a[s].
func mulGo(dst, a []float64) {
	for s := range dst {
		dst[s] *= a[s]
	}
}

// addToGo: dst[s] = a[s] + b[s].
func addToGo(dst, a, b []float64) {
	for s := range dst {
		dst[s] = a[s] + b[s]
	}
}

// addGo: dst[s] += a[s].
func addGo(dst, a []float64) {
	for s := range dst {
		dst[s] += a[s]
	}
}

// mulSumGo: dst[s] *= a[s] + b[s] (sum first, then the product).
func mulSumGo(dst, a, b []float64) {
	for s := range dst {
		dst[s] *= a[s] + b[s]
	}
}

// addMulGo: dst[s] += a[s] * b[s] (product first, then the sum).
func addMulGo(dst, a, b []float64) {
	for s := range dst {
		dst[s] += float64(a[s] * b[s])
	}
}

// addMul2Go: dst[s] += (a[s] * b[s]) * c[s].
func addMul2Go(dst, a, b, c []float64) {
	for s := range dst {
		dst[s] += float64(a[s] * b[s] * c[s])
	}
}
