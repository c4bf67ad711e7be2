// Package hyperspace evaluates the noise-based logic hyperspace objects
// of Section III of the paper on a per-sample basis:
//
//   - tau_N (Equation 2): the additive superposition of all 2^n valid
//     noise minterms, each variable contributing the product of its
//     literal's sources across all m clauses;
//   - T^j_l: the cube subspace of literal l restricted to clause j's
//     sources (Section III-B's binding construction);
//   - Z_j: the disjunction (sum) of T^j_l over the literals of clause j;
//   - Sigma_N: the conjunction (product) of the Z_j;
//   - S_N = tau_N * Sigma_N: the decision statistic of Algorithm 1.
//
// A naive expansion of these superpositions is exponential; the whole
// point of the NBL construction is that the *factored* forms above are
// linear in n·m per sample. Evaluator computes one sample of S_N in
// O(n·m) time and O(n·m) space using prefix/suffix products, supporting
// the variable bindings that Algorithm 2 applies to tau_N.
package hyperspace

import (
	"fmt"

	"repro/internal/cnf"
	"repro/internal/rng"
)

// SampleSource supplies samples of the 2·n·m basis sources under the
// counter-addressed stream contract: every source is a sequence indexed
// by a uint64 sample counter, and any block of it is addressable
// directly. noise.Bank is the stochastic implementation; the sbl
// package provides a deterministic sinusoid-carrier implementation
// (Section V's SBL), for which the counter is literally the carrier
// time t.
type SampleSource interface {
	// FillBlockAt writes samples base..base+k-1 of every source into
	// pos and neg (length k*n*m each) in source-major layout: entry
	// [(var*m+clause)*k + s] holds the source's sample base+s.
	// Implementations must make the result a function of base and k
	// only — the same range re-requested, split differently, or
	// requested out of order yields the same bits — so scalar and block
	// evaluation are bit-identical and disjoint ranges can be claimed
	// by concurrent workers.
	FillBlockAt(base uint64, k int, pos, neg []float64)
	// Dims returns the (variables, clauses) geometry of the source set.
	Dims() (n, m int)
}

// Evaluator computes per-sample values of the NBL-SAT hyperspace objects
// for a fixed formula and sample source. Every evaluation names the
// sample indices it reads, so the evaluator holds no stream position:
// callers own the sample-index axis. It is not safe for concurrent use;
// the Monte-Carlo engine gives each worker its own Evaluator.
type Evaluator struct {
	f    *cnf.Formula
	bank SampleSource
	n, m int

	// bound[v] constrains variable v in tau_N (Algorithm 2, line 4/8):
	// True keeps only the positive-literal branch, False only the
	// negative one, Unassigned keeps the sum of both.
	bound cnf.Assignment

	// Per-sample scratch: pos/neg hold the bank sample matrix
	// ([i*m+j] for 0-based variable i, clause j); prodPos/prodNeg hold
	// per-variable products across clauses; pre/suf hold prefix/suffix
	// products of clause factor terms.
	pos, neg         []float64
	prodPos, prodNeg []float64
	pre, suf         []float64

	// Block scratch (SoA, sized lazily to the largest block seen): the
	// sample matrices hold k samples per source in source-major layout,
	// the per-variable products and clause prefix/suffix arrays hold k
	// values per entry. Reused across StepBlockAt calls — the block path
	// allocates nothing per sample.
	blk blockScratch
}

// blockScratch holds the StepBlockAt working set for blocks up to cap k.
type blockScratch struct {
	k                int
	pos, neg         []float64 // k samples per source, [(i*m+j)*k+s]
	prodPos, prodNeg []float64 // per-variable clause products, [i*k+s]
	tau, sigma, z    []float64 // per-sample accumulators, [s]
	g                []float64 // per-clause variable factors pos+neg, [v*k+s]
	pre, suf         []float64 // row storage for computed prefix/suffix rows
	// preR[v] (1 <= v <= n-1) is the prefix-product row prod_{w<v} g_w;
	// sufR[v] (1 <= v <= n-1) is the suffix row prod_{w>=v} g_w. Rows
	// that equal a bare g row (preR[1], sufR[n-1]) alias into g and are
	// never recomputed; the leave-one-out terms of Z_j read these rows
	// directly. pre[n], suf[0] of the scalar kernel are all-ones rows and
	// have no storage here — the mult-by-one is elided, which is exact.
	preR, sufR [][]float64
}

// New returns an Evaluator for formula f drawing samples from bank.
// The bank's dimensions must match the formula.
func New(f *cnf.Formula, bank SampleSource) *Evaluator {
	n, m := bank.Dims()
	if n != f.NumVars || m != f.NumClauses() {
		panic(fmt.Sprintf("hyperspace: bank dims (%d,%d) do not match formula (%d,%d)",
			n, m, f.NumVars, f.NumClauses()))
	}
	if err := f.Validate(); err != nil {
		panic(err)
	}
	nm := n * m
	return &Evaluator{
		f: f, bank: bank, n: n, m: m,
		bound:   cnf.NewAssignment(n),
		pos:     make([]float64, nm),
		neg:     make([]float64, nm),
		prodPos: make([]float64, n),
		prodNeg: make([]float64, n),
		pre:     make([]float64, n+1),
		suf:     make([]float64, n+1),
	}
}

// Reset re-targets the evaluator at a new formula with the same (n, m)
// geometry, keeping every allocation: the sample matrices, product and
// prefix/suffix scratch, and the block working set are all sized by
// (n, m, k) only, so a formula swap costs nothing but clearing the
// bindings. This is the warm-path primitive of long-running services —
// a worker that has solved one uf20-91 instance re-serves the next one
// without rebuilding its 2·n·m-generator bank or any scratch. It panics
// on a geometry mismatch (callers check dims first) or an invalid
// formula, mirroring New.
func (e *Evaluator) Reset(f *cnf.Formula) {
	if f.NumVars != e.n || f.NumClauses() != e.m {
		panic(fmt.Sprintf("hyperspace: Reset formula dims (%d,%d) do not match evaluator (%d,%d)",
			f.NumVars, f.NumClauses(), e.n, e.m))
	}
	if err := f.Validate(); err != nil {
		panic(err)
	}
	e.f = f
	for v := range e.bound {
		e.bound[v] = cnf.Unassigned
	}
}

// Bind constrains variable v to val in tau_N. Binding to Unassigned
// removes the constraint. This mirrors Algorithm 2's construction of the
// reduced hyperspace tau^red_N; Sigma_N is never modified.
func (e *Evaluator) Bind(v cnf.Var, val cnf.Value) {
	if int(v) < 1 || int(v) > e.n {
		panic(fmt.Sprintf("hyperspace: Bind variable %d outside 1..%d", v, e.n))
	}
	e.bound[v] = val
}

// BindAll replaces all bindings with those of a (which must cover the
// formula's variables).
func (e *Evaluator) BindAll(a cnf.Assignment) {
	for v := 1; v <= e.n; v++ {
		e.bound[v] = a.Get(cnf.Var(v))
	}
}

// Bindings returns a copy of the current binding assignment.
func (e *Evaluator) Bindings() cnf.Assignment { return e.bound.Clone() }

// Sample holds the per-sample values of the hyperspace objects.
type Sample struct {
	Tau   float64 // tau_N(t), possibly reduced by bindings
	Sigma float64 // Sigma_N(t)
	S     float64 // S_N(t) = Tau * Sigma
}

// StepAt draws sample i from every noise source and evaluates the
// hyperspace objects with the scalar kernel: the reference StepBlockAt
// is pinned against.
func (e *Evaluator) StepAt(i uint64) Sample {
	// For k = 1 the source-major block layout [(i*m+j)*1] coincides with
	// the scalar matrix layout [i*m+j], so the single-sample fill reads
	// straight into the scalar scratch.
	e.bank.FillBlockAt(i, 1, e.pos, e.neg)
	return e.eval()
}

// StepBlockAt evaluates S_N for source samples base..base+len(out)-1:
// the caller addresses the stream directly, which is how the sampler's
// workers claim disjoint sample-index ranges. It performs, per sample,
// exactly the floating-point operations of StepAt in the same order, so
// a block is bit-identical to len(out) StepAt calls over the same
// sample range (the conformance tests assert this for every noise
// family). The win is structural: the source dispatch, the binding
// switch, and the prefix/suffix scratch are amortized over the block,
// inner loops run stride-1 over SoA buffers, and nothing is allocated
// per sample.
func (e *Evaluator) StepBlockAt(base uint64, out []float64) {
	k := len(out)
	if k == 0 {
		return
	}
	n, m := e.n, e.m
	b := e.ensureBlock(k)
	e.bank.FillBlockAt(base, k, b.pos[:n*m*k], b.neg[:n*m*k])

	// Per-variable products across clauses (cf. eval's first loop). The
	// all-ones initialization of the scalar kernel is elided by seeding
	// the accumulator rows from the first clause (1*x == x exactly), and
	// the clause loop is unrolled by pairs with the same association
	// order, so every product is bit-identical to the scalar kernel's.
	for i := 0; i < n; i++ {
		pp := b.prodPos[i*k : i*k+k]
		pn := b.prodNeg[i*k : i*k+k]
		row := i * m * k
		if m == 1 {
			copy(pp, b.pos[row:row+k])
			copy(pn, b.neg[row:row+k])
			continue
		}
		vecMulTo(pp, b.pos[row:row+k], b.pos[row+k:row+2*k])
		vecMulTo(pn, b.neg[row:row+k], b.neg[row+k:row+2*k])
		j := 2
		for ; j+1 < m; j += 2 {
			o := row + j*k
			vecMulPair(pp, b.pos[o:o+k], b.pos[o+k:o+2*k])
			vecMulPair(pn, b.neg[o:o+k], b.neg[o+k:o+2*k])
		}
		if j < m {
			o := row + j*k
			vecMul(pp, b.pos[o:o+k])
			vecMul(pn, b.neg[o:o+k])
		}
	}

	// tau_N per sample, selecting the bound branch once per variable;
	// variable 1 seeds the accumulator, again eliding the mult-by-one.
	tau := b.tau[:k]
	for i := 0; i < n; i++ {
		pp := b.prodPos[i*k : i*k+k]
		pn := b.prodNeg[i*k : i*k+k]
		switch e.bound[i+1] {
		case cnf.True:
			if i == 0 {
				copy(tau, pp)
				continue
			}
			vecMul(tau, pp)
		case cnf.False:
			if i == 0 {
				copy(tau, pn)
				continue
			}
			vecMul(tau, pn)
		default:
			if i == 0 {
				vecAddTo(tau, pp, pn)
				continue
			}
			vecMulSum(tau, pp, pn)
		}
	}

	// Sigma_N per sample. Per clause, the variable factors g_v = pos+neg
	// are materialized once (the scalar kernel computes each twice, in
	// its prefix and suffix passes), the interior prefix/suffix rows are
	// cumulative products over g, and the boundary rows alias g itself.
	// The leave-one-out term of a literal on variable v multiplies in the
	// scalar kernel's order lit*pre[v]*suf[v+1], with all-ones boundary
	// rows elided exactly.
	// g and the prefix/suffix rows use the allocated stride b.k (the row
	// table aliases were built against it); pos/neg/prod use the active
	// block size k as their stride. Rows are always iterated to k only.
	gs := b.k
	sigma := b.sigma[:k]
	z := b.z[:k]
	for j := 0; j < m; j++ {
		for v := 0; v < n; v++ {
			o := (v*m + j) * k
			vecAddTo(b.g[v*gs:v*gs+k], b.pos[o:o+k], b.neg[o:o+k])
		}
		for v := 2; v <= n-1; v++ {
			vecMulTo(b.preR[v][:k], b.preR[v-1][:k], b.g[(v-1)*gs:(v-1)*gs+k])
		}
		for v := n - 2; v >= 1; v-- {
			vecMulTo(b.sufR[v][:k], b.sufR[v+1][:k], b.g[v*gs:v*gs+k])
		}
		for s := 0; s < k; s++ {
			z[s] = 0
		}
		for _, l := range e.f.Clauses[j] {
			v := int(l.Var()) - 1
			o := (v*m + j) * k
			lits := b.pos[o : o+k]
			if l.IsNeg() {
				lits = b.neg[o : o+k]
			}
			switch {
			case n == 1:
				vecAdd(z, lits)
			case v == 0:
				vecAddMul(z, lits, b.sufR[1][:k])
			case v == n-1:
				vecAddMul(z, lits, b.preR[n-1][:k])
			default:
				vecAddMul2(z, lits, b.preR[v][:k], b.sufR[v+1][:k])
			}
		}
		if j == 0 {
			copy(sigma, z)
			continue
		}
		vecMul(sigma, z)
	}

	vecMulTo(out, tau, sigma)
}

// EvalAccelName reports the StepBlockAt row-kernel backend active in
// this process: "avx2" on amd64 when the CPU supports it (same gate as
// the rng fill kernels), "none" for the portable loops. Solver stats
// and bench reports echo it so a recorded result names the kernel that
// produced it — the two backends are bit-identical, so the name is
// provenance, not a caveat.
func EvalAccelName() string {
	if rng.HasAVX2() {
		return "avx2"
	}
	return "none"
}

// ensureBlock sizes the block scratch for blocks of k samples.
func (e *Evaluator) ensureBlock(k int) *blockScratch {
	b := &e.blk
	if k <= b.k {
		// Smaller blocks reuse a prefix of the buffers: StepBlockAt indexes
		// every array with the active k as the stride, so only total
		// length matters.
		return b
	}
	nm := e.n * e.m
	n := e.n
	// The allocated stride rounds up to the vector width (4 float64) so
	// every g/pre/suf row the AVX2 kernels stream over is a whole number
	// of vector rows and no row's tail shares a 32-byte group with the
	// next row's head. Active blocks still index with their own k; only
	// capacity is rounded.
	kk := (k + 3) &^ 3
	b.k = kk
	b.pos = make([]float64, nm*kk)
	b.neg = make([]float64, nm*kk)
	b.prodPos = make([]float64, n*kk)
	b.prodNeg = make([]float64, n*kk)
	b.tau = make([]float64, kk)
	b.sigma = make([]float64, kk)
	b.z = make([]float64, kk)
	b.g = make([]float64, n*kk)
	// Interior prefix/suffix rows get their own storage; boundary rows
	// alias g (pre[1] = g_0, suf[n-1] = g_{n-1}), so re-filling g per
	// clause refreshes them for free.
	b.pre = make([]float64, n*kk)
	b.suf = make([]float64, n*kk)
	b.preR = make([][]float64, n)
	b.sufR = make([][]float64, n)
	if n >= 2 {
		b.preR[1] = b.g[0:kk]
		b.sufR[n-1] = b.g[(n-1)*kk : n*kk]
		for v := 2; v <= n-1; v++ {
			b.preR[v] = b.pre[v*kk : v*kk+kk]
		}
		for v := 1; v <= n-2; v++ {
			b.sufR[v] = b.suf[v*kk : v*kk+kk]
		}
	}
	return b
}

// eval computes the sample values from the current pos/neg matrices.
func (e *Evaluator) eval() Sample {
	n, m := e.n, e.m

	// Per-variable products across clauses:
	//   prodPos[i] = prod_j N^j_{x_{i+1}},  prodNeg[i] = prod_j N^j_{!x_{i+1}}.
	for i := 0; i < n; i++ {
		pp, pn := 1.0, 1.0
		row := i * m
		for j := 0; j < m; j++ {
			pp *= e.pos[row+j]
			pn *= e.neg[row+j]
		}
		e.prodPos[i] = pp
		e.prodNeg[i] = pn
	}

	// tau_N = prod_i (branch selected by binding).
	tau := 1.0
	for i := 0; i < n; i++ {
		switch e.bound[i+1] {
		case cnf.True:
			tau *= e.prodPos[i]
		case cnf.False:
			tau *= e.prodNeg[i]
		default:
			tau *= e.prodPos[i] + e.prodNeg[i]
		}
	}

	// Sigma_N = prod_j Z_j with
	//   Z_j = sum_{l in c_j} T^j_l,
	//   T^j_l = L_{v(l),j} * prod_{k != v(l)} (pos[k,j] + neg[k,j]).
	// The "leave-one-out" products come from prefix/suffix arrays over
	// the clause's variable factors g_k = pos[k,j] + neg[k,j].
	sigma := 1.0
	for j := 0; j < m; j++ {
		e.pre[0] = 1
		for k := 0; k < n; k++ {
			e.pre[k+1] = e.pre[k] * (e.pos[k*m+j] + e.neg[k*m+j])
		}
		e.suf[n] = 1
		for k := n - 1; k >= 0; k-- {
			e.suf[k] = e.suf[k+1] * (e.pos[k*m+j] + e.neg[k*m+j])
		}
		z := 0.0
		for _, l := range e.f.Clauses[j] {
			k := int(l.Var()) - 1
			lit := e.pos[k*m+j]
			if l.IsNeg() {
				lit = e.neg[k*m+j]
			}
			z += float64(lit * e.pre[k] * e.suf[k+1])
		}
		sigma *= z
	}

	return Sample{Tau: tau, Sigma: sigma, S: tau * sigma}
}

// TauMintermCount returns the number of noise minterms in the (reduced)
// hyperspace: 2^(free variables). It is the paper's |tau_N| and shrinks
// by half per binding.
func (e *Evaluator) TauMintermCount() uint64 {
	free := 0
	for v := 1; v <= e.n; v++ {
		if e.bound[v] == cnf.Unassigned {
			free++
		}
	}
	return 1 << uint(free)
}

// Dims returns the formula dimensions (n variables, m clauses).
func (e *Evaluator) Dims() (n, m int) { return e.n, e.m }
