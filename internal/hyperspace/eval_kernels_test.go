package hyperspace

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cnf"
	"repro/internal/rng"
)

// randomBlock returns a block of n variables, m clauses and k samples
// whose source and out rows start off floats into their allocations (so
// lane groups straddle 32-byte boundaries every way) and hold random
// values of varied magnitude.
func randomBlock(g *rng.Xoshiro256, n, m, k, off int) (*blockScratch, []float64) {
	row := func(size int) []float64 {
		r := make([]float64, off+size)
		for i := range r {
			r[i] = (2*g.Float64() - 1) * math.Exp2(float64(g.Intn(9)-4))
		}
		return r[off:]
	}
	b := &blockScratch{n: n, m: m, k: k, src: row(2 * n * m * k), slots: newSlots(n)}
	return b, row(k)
}

// cloneBlock returns a deep copy of b.
func cloneBlock(b *blockScratch) *blockScratch {
	c := *b
	c.src, c.slots = slices.Clone(b.src), slices.Clone(b.slots)
	return &c
}

// sameBits reports the first index where a and b differ in bits, or -1.
func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestKernelsMatchPortable pins the dispatched clause and tau kernels
// bit-identical to their portable bodies over whole random blocks of
// 1–24 variables and every length 0–67, at every lane offset, with
// random literal tables (empty clauses, duplicate literals and x ∨ ¬x
// included) and random bindings. On AVX2 hardware the dispatch runs the
// assembly over the k&^3 (clause) and k&^15 (tau) prefixes, so this
// checks the assembly and the Go bodies against each other directly,
// the Go bodies over whole blocks rather than only as tails.
func TestKernelsMatchPortable(t *testing.T) {
	g := rng.New(0x5eed)
	for n := 1; n <= 24; n++ {
		for k := 0; k <= 67; k++ {
			for off := 0; off < 4; off++ {
				m := 1 + g.Intn(4)
				vec, out := randomBlock(g, n, m, k, off)
				ref, refOut := cloneBlock(vec), slices.Clone(out)
				lits := make([]clauseLit, g.Intn(7))
				for i := range lits {
					v := int32(g.Intn(n))
					lits[i] = clauseLit{row: v + int32(n*g.Intn(2)), v: v}
				}
				j := g.Intn(m)
				clauseKernel(vec, j, lits, out)
				clauseGo(ref, j, lits, refOut, 0, k)
				if i := sameBits(out, refOut); i >= 0 {
					t.Fatalf("clause kernel n=%d k=%d off=%d lits=%v: sample %d dispatched %v, portable %v",
						n, k, off, lits, i, out[i], refOut[i])
				}

				bound := make([]cnf.Value, n)
				for v := range bound {
					bound[v] = cnf.Value(g.Intn(3))
				}
				tauKernel(vec, bound, out)
				tauGo(ref, bound, refOut, 0, k)
				if i := sameBits(out, refOut); i >= 0 {
					t.Fatalf("tau kernel n=%d k=%d off=%d bound=%v: sample %d dispatched %v, portable %v",
						n, k, off, bound, i, out[i], refOut[i])
				}
			}
		}
	}
}
