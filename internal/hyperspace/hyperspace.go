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
// the variable bindings that Algorithm 2 applies to tau_N. StepAt runs
// the scalar kernel, the reference; StepBlockAt evaluates a block of
// samples with one clause kernel call per clause and one tau kernel
// call (AVX2 assembly where the CPU has it, portable Go elsewhere), bit
// for bit equal to StepAt.
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

	// lits holds every clause's literals in the kernels' form, clause j's
	// at lits[litOff[j]:litOff[j+1]] in clause order. New and Reset build
	// it from the formula.
	lits   []clauseLit
	litOff []int

	// Block scratch, reused across StepBlockAt calls: the block path
	// allocates nothing per sample.
	blk blockScratch
}

// blockScratch is StepBlockAt's working set. The source buffer is sized
// lazily for the largest block seen; every row holds the active block's
// k samples, so k is every row's stride.
type blockScratch struct {
	n, m, k int
	// src holds variable v's clause-j positive source at [(v·m+j)·k+s]
	// and its negative source n·m·k further on. A variable's clause rows
	// are thus consecutive, which the tau kernel walks; a clause's
	// variable rows are m·k apart, and its negative rows follow its
	// positive ones n rows on, which is what a clauseLit's row counts in.
	src []float64
	// slots is the clause kernel's scratch, slotFloats per variable: one
	// lane group's g_v, pre_v and after_v (see clauseGo). New stores the
	// chains' all-ones starts, pre_0 and after_{n-1}; no kernel writes
	// them.
	slots []float64
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
	e := &Evaluator{
		f: f, bank: bank, n: n, m: m,
		bound:   cnf.NewAssignment(n),
		pos:     make([]float64, nm),
		neg:     make([]float64, nm),
		prodPos: make([]float64, n),
		prodNeg: make([]float64, n),
		pre:     make([]float64, n+1),
		suf:     make([]float64, n+1),
		blk:     blockScratch{n: n, m: m, slots: newSlots(n)},
	}
	e.buildLits()
	return e
}

// newSlots returns the clause kernel's scratch for n variables, with
// the prefix chain's start pre_0 and the suffix chain's start after_{n-1}
// set to 1 in every lane.
func newSlots(n int) []float64 {
	slots := make([]float64, n*slotFloats)
	if n > 0 {
		for l := range 4 {
			slots[4+l] = 1
			slots[(n-1)*slotFloats+8+l] = 1
		}
	}
	return slots
}

// buildLits builds the kernels' literal table for e.f.
func (e *Evaluator) buildLits() {
	e.lits, e.litOff = e.lits[:0], append(e.litOff[:0], 0)
	for _, c := range e.f.Clauses {
		for _, l := range c {
			v := int32(l.Var()) - 1
			row := v
			if l.IsNeg() {
				row += int32(e.n)
			}
			e.lits = append(e.lits, clauseLit{row: row, v: v})
		}
		e.litOff = append(e.litOff, len(e.lits))
	}
}

// Reset re-targets the evaluator at a new formula with the same (n, m)
// geometry, keeping every allocation: the sample matrices, product and
// prefix/suffix scratch, and the block working set are all sized by
// (n, m, k) only, so a formula swap costs nothing but rebuilding the
// literal table in place and clearing the bindings. This is the
// warm-path primitive of long-running services — a worker that has
// solved one uf20-91 instance re-serves the next one without
// rebuilding its 2·n·m-generator bank or any scratch. It panics
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
	e.buildLits()
	for v := range e.bound {
		e.bound[v] = cnf.Unassigned
	}
}

// BindAll replaces all bindings with those of a (which must cover the
// formula's variables): a bound variable is constrained to its value in
// tau_N, an Unassigned one is free. This mirrors Algorithm 2's
// construction of the reduced hyperspace tau^red_N; Sigma_N is never
// modified.
func (e *Evaluator) BindAll(a cnf.Assignment) {
	for v := 1; v <= e.n; v++ {
		e.bound[v] = a.Get(cnf.Var(v))
	}
}

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
// family). The work is one source fill; one clause kernel call per
// clause, which reads the clause's 2n source rows once and multiplies
// Z_j into the running Sigma_N; and one tau kernel call, which forms
// each variable's clause products from its consecutive rows, then
// tau_N and S_N = tau_N·Sigma_N. Both keep a lane group's values in
// registers, the clause kernel also in a per-variable scratch that
// stays in L1, and nothing is allocated per sample.
func (e *Evaluator) StepBlockAt(base uint64, out []float64) {
	k := len(out)
	if k == 0 {
		return
	}
	b := e.ensureBlock(k)
	nmk := e.n * e.m * k
	e.bank.FillBlockAt(base, k, b.src[:nmk:nmk], b.src[nmk:2*nmk:2*nmk])

	// Sigma_N accumulates in out from eval's starting value.
	for s := range out {
		out[s] = 1
	}
	for j := 0; j < e.m; j++ {
		clauseKernel(b, j, e.lits[e.litOff[j]:e.litOff[j+1]], out)
	}
	tauKernel(b, e.bound[1:], out)
}

// EvalAccelName reports the StepBlockAt kernel backend active in this
// process: "avx2" on amd64 when the CPU supports it (same gate as the
// rng fill kernels), "none" for the portable kernels. Solver stats and
// bench reports echo it so a recorded result names the kernel that
// produced it — the two backends are bit-identical, so the name is
// provenance, not a caveat.
func EvalAccelName() string {
	if rng.HasAVX2() {
		return "avx2"
	}
	return "none"
}

// ensureBlock sizes the source buffer for blocks of k samples and
// makes k the active row stride. A smaller block reuses a prefix of the
// buffer.
func (e *Evaluator) ensureBlock(k int) *blockScratch {
	b := &e.blk
	if 2*e.n*e.m*k > len(b.src) {
		b.src = make([]float64, 2*e.n*e.m*k)
	}
	b.k = k
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
