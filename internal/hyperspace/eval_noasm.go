//go:build !amd64

package hyperspace

// Other architectures: every row primitive is the pure-Go loop, the
// same bodies the amd64 dispatch falls back to without AVX2 and is
// pinned against (TestRowKernelsMatchPortable); the block property tests
// compare StepBlockAt to per-sample StepAt, which runs the scalar kernel
// on every build.

func vecMulTo(dst, a, b []float64)      { mulToGo(dst, a, b) }
func vecMulPair(dst, a, b []float64)    { mulPairGo(dst, a, b) }
func vecMul(dst, a []float64)           { mulGo(dst, a) }
func vecAddTo(dst, a, b []float64)      { addToGo(dst, a, b) }
func vecAdd(dst, a []float64)           { addGo(dst, a) }
func vecMulSum(dst, a, b []float64)     { mulSumGo(dst, a, b) }
func vecAddMul(dst, a, b []float64)     { addMulGo(dst, a, b) }
func vecAddMul2(dst, a, b, c []float64) { addMul2Go(dst, a, b, c) }
