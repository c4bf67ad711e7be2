package hyperspace

import "repro/internal/cnf"

// The block evaluator's two kernels, in their portable form. StepBlockAt
// runs the clause kernel once per clause and the tau kernel once per
// block. Per sample, the two together perform exactly the scalar
// kernel's (eval) floating-point operations in eval's order, including
// its multiplications by the all-ones starting products and
// prefix/suffix boundaries; eval is the conformance oracle. Go
// evaluates product chains left to right, and every product that feeds
// a sum is wrapped in an explicit float64 conversion, which the spec
// says forbids fusing it into a multiply-add (arm64 would). On AVX2
// hardware the assembly twins run a prefix of each block, with the same
// operations per lane (separate multiply and add instructions, never
// FMA); these bodies run the tail, and the whole block elsewhere.

// clauseLit is one literal of a clause in the kernels' form: row is the
// literal's source row counted from the clause's first row (v for the
// positive literal of 0-based variable v, n+v for its negation), and v
// is the variable.
type clauseLit struct{ row, v int32 }

// slotFloats is the size of a variable's slot in blockScratch.slots: a
// lane group's g_v, pre_v and after_v, four lanes each.
const slotFloats = 12

// clauseGo is the clause kernel for samples lo <= s < hi: it multiplies
// clause j's factor Z_j into out[s], which holds the running Sigma_N.
// Per sample, in lane l = s%4 of variable v's slot, it forms
// g_v = pos+neg, then the prefix products pre_v = prod_{w<v} g_w upward
// and the suffix products after_v = prod_{w>v} g_w downward, each chain
// starting from the all-ones entry (pre_0, after_{n-1}) that New
// stores. A literal on v contributes (lit·pre_v)·after_v: eval's
// lit·pre[v]·suf[v+1].
func clauseGo(b *blockScratch, j int, lits []clauseLit, out []float64, lo, hi int) {
	n, stride := b.n, b.m*b.k
	first := j * b.k
	for s := lo; s < hi; s++ {
		l := s & 3
		for v := 0; v < n; v++ {
			b.slots[v*slotFloats+l] = b.src[first+v*stride+s] + b.src[first+(n+v)*stride+s]
		}
		for i := 0; i < n-1; i++ {
			up, down := i*slotFloats+l, (n-1-i)*slotFloats+l
			b.slots[up+slotFloats+4] = b.slots[up+4] * b.slots[up]
			b.slots[down-slotFloats+8] = b.slots[down+8] * b.slots[down]
		}
		z := 0.0
		for _, lit := range lits {
			slot := int(lit.v)*slotFloats + l
			z += float64(b.src[first+int(lit.row)*stride+s] * b.slots[slot+4] * b.slots[slot+8])
		}
		out[s] *= z
	}
}

// tauGo is the tau kernel for samples lo <= s < hi: out[s], which holds
// Sigma_N, becomes tau_N·Sigma_N. Per variable it forms eval's
// prodPos/prodNeg, the products of the variable's positive and negative
// sources over the clauses in clause order, and multiplies tau_N by the
// branch the variable's binding selects (bound[v] binds 0-based
// variable v).
func tauGo(b *blockScratch, bound []cnf.Value, out []float64, lo, hi int) {
	k, stride, neg := b.k, b.m*b.k, b.n*b.m*b.k
	for s := lo; s < hi; s++ {
		tau := 1.0
		for v, val := range bound {
			pp, pn := 1.0, 1.0
			for i := v*stride + s; i < (v+1)*stride; i += k {
				pp *= b.src[i]
				pn *= b.src[neg+i]
			}
			switch val {
			case cnf.True:
				tau *= pp
			case cnf.False:
				tau *= pn
			default:
				tau *= pp + pn
			}
		}
		out[s] = tau * out[s]
	}
}
