package hyperspace

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// rowKernels pairs each dispatched row primitive with its portable body,
// both behind one four-row signature (unused rows are ignored).
var rowKernels = []struct {
	name     string
	vec, ref func(dst, a, b, c []float64)
}{
	{"mulTo", func(d, a, b, _ []float64) { vecMulTo(d, a, b) }, func(d, a, b, _ []float64) { mulToGo(d, a, b) }},
	{"mulPair", func(d, a, b, _ []float64) { vecMulPair(d, a, b) }, func(d, a, b, _ []float64) { mulPairGo(d, a, b) }},
	{"mul", func(d, a, _, _ []float64) { vecMul(d, a) }, func(d, a, _, _ []float64) { mulGo(d, a) }},
	{"addTo", func(d, a, b, _ []float64) { vecAddTo(d, a, b) }, func(d, a, b, _ []float64) { addToGo(d, a, b) }},
	{"add", func(d, a, _, _ []float64) { vecAdd(d, a) }, func(d, a, _, _ []float64) { addGo(d, a) }},
	{"mulSum", func(d, a, b, _ []float64) { vecMulSum(d, a, b) }, func(d, a, b, _ []float64) { mulSumGo(d, a, b) }},
	{"addMul", func(d, a, b, _ []float64) { vecAddMul(d, a, b) }, func(d, a, b, _ []float64) { addMulGo(d, a, b) }},
	{"addMul2", vecAddMul2, addMul2Go},
}

// TestRowKernelsMatchPortable pins every dispatched row primitive
// bit-identical to its portable body over whole rows of every length
// 0–67, starting at every offset within a vector. On AVX2 hardware the
// dispatch runs the assembly over the len&^3 prefix, so this checks the
// kernels and the pure-Go loops against each other directly, the Go
// bodies over whole rows rather than only as tails.
func TestRowKernelsMatchPortable(t *testing.T) {
	g := rng.New(0x5eed)
	row := func(n int) []float64 {
		off := g.Intn(4)
		r := make([]float64, off+n)
		for i := range r {
			r[i] = g.Norm() * math.Exp2(float64(g.Intn(9)-4))
		}
		return r[off:]
	}
	for n := 0; n <= 67; n++ {
		for _, k := range rowKernels {
			got, a, b, c := row(n), row(n), row(n), row(n)
			want := append([]float64(nil), got...)
			k.vec(got, a, b, c)
			k.ref(want, a, b, c)
			for s := range want {
				if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
					t.Fatalf("%s len %d lane %d: dispatched %v, portable %v",
						k.name, n, s, got[s], want[s])
				}
			}
		}
	}
}
