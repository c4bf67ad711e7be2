//go:build !nblavx2 || !amd64

package hyperspace

// Portable build: every row primitive is the pure-Go loop. This path is
// also the conformance oracle the AVX2 build is pinned against — the
// block property tests compare StepBlockAt to per-sample StepAt, and StepAt
// runs the scalar kernel on every build.

func vecMulTo(dst, a, b []float64)      { mulToGo(dst, a, b) }
func vecMulPair(dst, a, b []float64)    { mulPairGo(dst, a, b) }
func vecMul(dst, a []float64)           { mulGo(dst, a) }
func vecAddTo(dst, a, b []float64)      { addToGo(dst, a, b) }
func vecAdd(dst, a []float64)           { addGo(dst, a) }
func vecMulSum(dst, a, b []float64)     { mulSumGo(dst, a, b) }
func vecAddMul(dst, a, b []float64)     { addMulGo(dst, a, b) }
func vecAddMul2(dst, a, b, c []float64) { addMul2Go(dst, a, b, c) }

// evalAccelName reports the active StepBlockAt row-kernel backend.
func evalAccelName() string { return "none" }
