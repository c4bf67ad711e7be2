// Package rtw implements the Random-Telegraph-Wave variant of NBL-SAT
// (Section V, reference [17] "instantaneous noise-based logic"): every
// basis source takes values ±1, so every hyperspace quantity is an
// integer and the engine evaluates S_N in exact int64 arithmetic.
//
// RTW carriers have the best decision statistics of all families — the
// fourth moment E[X^4] = E[X^2]^2 = 1 minimizes self-correlation
// variance (see noise.Family.Kurtosis) — and they sidestep the float64
// underflow of the paper's U[-0.5,0.5] sources entirely, since products
// never shrink. The E6 ablation quantifies both effects.
package rtw

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cnf"
	"repro/internal/hyperspace"
	"repro/internal/noise"
	"repro/internal/stats"
)

// Engine is an integer-exact RTW NBL-SAT engine for one formula.
type Engine struct {
	f    *cnf.Formula
	bank *noise.Bank
	seed uint64
	n, m int

	// cursor is the engine's position on the bank's sample-index axis
	// (the bank is stateless; the consumer owns the position). Reset
	// rewinds it to zero.
	cursor uint64

	// wide selects the arbitrary-precision kernel: the instance's
	// worst-case |S_N| exceeds int64 (see New and wide.go).
	wide bool

	bound cnf.Assignment

	// block is the CheckCtx batch size, chosen cache-aware from the
	// instance geometry at construction (tests override it to prove
	// verdict invariance).
	block int

	posF, negF []float64 // bank fill buffers (±1 as floats)
	pos, neg   []int64
	prodP      []int64
	prodN      []int64
	pre, suf   []int64

	blk rtwBlock // StepBlock scratch, sized lazily to the largest block

	wsc wideScratch // wide-kernel scratch and exact moment accumulators
}

// rtwBlock is the integer block-kernel working set: k samples per
// source in source-major layout ([(i*m+j)*k+s]), plus blocked
// per-variable products, prefix/suffix arrays, and accumulators.
type rtwBlock struct {
	k            int
	posF, negF   []float64
	pos, neg     []int64
	prodP, prodN []int64
	tau, sig, z  []int64
	pre, suf     []int64
	out          []float64 // float view of a block for the Welford path
}

// New builds an RTW engine. Instances whose worst-case |S_N| bound
// (2^n · prod_j(k_j · 2^(n-1))) fits in an int64 get the exact integer
// block kernel; anything larger — uf20-91 needs ~1900 bits — falls back
// to the equally exact wide kernel (see wide.go), which factors every
// sample as sign·(small product)·2^shift and only touches big.Int for
// the final assembly and the moment accumulators.
func New(f *cnf.Formula, seed uint64) (*Engine, error) {
	n, m := f.NumVars, f.NumClauses()
	if n < 1 || m < 1 {
		return nil, fmt.Errorf("rtw: need n >= 1 and m >= 1, got (%d,%d)", n, m)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	bitsNeeded, err := widthBits(f)
	if err != nil {
		return nil, err
	}
	nm := n * m
	return &Engine{
		f: f, bank: noise.NewBank(noise.RTW, seed, n, m), seed: seed, n: n, m: m,
		wide:  bitsNeeded > 62,
		bound: cnf.NewAssignment(n),
		// 32 bytes per source cell: the block kernel keeps float64 fill
		// buffers and their int64 conversions for both polarities.
		block: hyperspace.BlockSizeBytes(n, m, 32),
		posF:  make([]float64, nm), negF: make([]float64, nm),
		pos: make([]int64, nm), neg: make([]int64, nm),
		prodP: make([]int64, n), prodN: make([]int64, n),
		pre: make([]int64, n+1), suf: make([]int64, n+1),
	}, nil
}

// Reset re-targets the engine at a new formula, restoring fresh-engine
// state: the bank is reseeded to its construction streams, bindings are
// cleared, and the wide/int64 kernel choice is recomputed from the new
// clause widths (the overflow bound depends on clause sizes, not just
// (n, m)). A Reset engine is result-identical to New(f, seed) — the
// warm-path contract the engine lease pool relies on. When the (n, m)
// geometry matches, the 2·n·m-generator bank and every scratch buffer
// are kept; otherwise the engine is rebuilt in place.
func (e *Engine) Reset(f *cnf.Formula) error {
	n, m := f.NumVars, f.NumClauses()
	if n != e.n || m != e.m {
		fresh, err := New(f, e.seed)
		if err != nil {
			return err
		}
		*e = *fresh
		return nil
	}
	if err := f.Validate(); err != nil {
		return err
	}
	bitsNeeded, err := widthBits(f)
	if err != nil {
		return err
	}
	e.f = f
	e.wide = bitsNeeded > 62
	for v := range e.bound {
		e.bound[v] = cnf.Unassigned
	}
	// The moment accumulators (wsc) and block scratch need no clearing:
	// every check zeroes or overwrites them before reading.
	e.bank.Reseed(e.seed)
	e.cursor = 0
	return nil
}

// widthBits returns the worst-case |S_N| bit bound for f: the tau
// bound 2^n plus |Z_j| <= k_j·2^(n-1) per clause. It rejects empty
// clauses (the kernels assume none). New and Reset share it, so a warm
// re-target always picks the same int64/wide kernel a cold
// construction would.
func widthBits(f *cnf.Formula) (int, error) {
	n := f.NumVars
	bitsNeeded := n
	for _, c := range f.Clauses {
		if len(c) == 0 {
			return 0, fmt.Errorf("rtw: empty clause")
		}
		bitsNeeded += bits.Len(uint(len(c))) + n - 1
	}
	return bitsNeeded, nil
}

// Wide reports whether the engine runs the arbitrary-precision kernel
// (the int64 worst-case bound does not fit). Step/StepBlock are only
// valid on non-wide engines; Check/CheckCtx/Assign work on both.
func (e *Engine) Wide() bool { return e.wide }

// Bind constrains a variable in tau_N, as in Algorithm 2.
func (e *Engine) Bind(v cnf.Var, val cnf.Value) { e.bound[v] = val }

// BindAll replaces all bindings.
func (e *Engine) BindAll(a cnf.Assignment) {
	for v := 1; v <= e.n; v++ {
		e.bound[v] = a.Get(cnf.Var(v))
	}
}

// Step draws one RTW sample vector and returns the exact integer S_N(t).
// It is only valid on non-wide engines (New guarantees the bound); wide
// geometries must go through CheckCtx, whose kernel has no overflow.
func (e *Engine) Step() int64 {
	if e.wide {
		panic("rtw: Step would overflow int64 on this geometry; use CheckCtx (wide kernel)")
	}
	// k=1 block layout coincides with the scalar [i*m+j] layout.
	e.bank.FillBlockAt(e.cursor, 1, e.posF, e.negF)
	e.cursor++
	for k := range e.posF {
		e.pos[k] = int64(e.posF[k])
		e.neg[k] = int64(e.negF[k])
	}
	n, m := e.n, e.m

	for i := 0; i < n; i++ {
		pp, pn := int64(1), int64(1)
		row := i * m
		for j := 0; j < m; j++ {
			pp *= e.pos[row+j]
			pn *= e.neg[row+j]
		}
		e.prodP[i] = pp
		e.prodN[i] = pn
	}
	tau := int64(1)
	for i := 0; i < n; i++ {
		switch e.bound[i+1] {
		case cnf.True:
			tau *= e.prodP[i]
		case cnf.False:
			tau *= e.prodN[i]
		default:
			tau *= e.prodP[i] + e.prodN[i]
		}
	}

	sigma := int64(1)
	for j := 0; j < m; j++ {
		e.pre[0] = 1
		for k := 0; k < n; k++ {
			e.pre[k+1] = e.pre[k] * (e.pos[k*m+j] + e.neg[k*m+j])
		}
		e.suf[n] = 1
		for k := n - 1; k >= 0; k-- {
			e.suf[k] = e.suf[k+1] * (e.pos[k*m+j] + e.neg[k*m+j])
		}
		z := int64(0)
		for _, l := range e.f.Clauses[j] {
			k := int(l.Var()) - 1
			lit := e.pos[k*m+j]
			if l.IsNeg() {
				lit = e.neg[k*m+j]
			}
			z += lit * e.pre[k] * e.suf[k+1]
		}
		sigma *= z
	}
	return tau * sigma
}

// StepBlock computes len(out) consecutive exact S_N samples in one
// bank pass. It performs, per sample, exactly the integer operations of
// Step in the same order over the same streams, so a StepBlock equals
// len(out) Steps value for value (asserted by the conformance tests);
// the bank dispatch, binding switch, and scratch setup are amortized
// over the block.
func (e *Engine) StepBlock(out []int64) {
	if e.wide {
		panic("rtw: StepBlock would overflow int64 on this geometry; use CheckCtx (wide kernel)")
	}
	k := len(out)
	if k == 0 {
		return
	}
	n, m := e.n, e.m
	b := e.ensureBlock(k)
	nmk := n * m * k
	e.bank.FillBlockAt(e.cursor, k, b.posF[:nmk], b.negF[:nmk])
	e.cursor += uint64(k)
	for i := 0; i < nmk; i++ {
		b.pos[i] = int64(b.posF[i])
		b.neg[i] = int64(b.negF[i])
	}

	for i := 0; i < n; i++ {
		pp := b.prodP[i*k : i*k+k]
		pn := b.prodN[i*k : i*k+k]
		for s := 0; s < k; s++ {
			pp[s], pn[s] = 1, 1
		}
		for j := 0; j < m; j++ {
			o := (i*m + j) * k
			ps := b.pos[o : o+k]
			ns := b.neg[o : o+k]
			for s := 0; s < k; s++ {
				pp[s] *= ps[s]
				pn[s] *= ns[s]
			}
		}
	}

	tau := b.tau[:k]
	for s := 0; s < k; s++ {
		tau[s] = 1
	}
	for i := 0; i < n; i++ {
		pp := b.prodP[i*k : i*k+k]
		pn := b.prodN[i*k : i*k+k]
		switch e.bound[i+1] {
		case cnf.True:
			for s := 0; s < k; s++ {
				tau[s] *= pp[s]
			}
		case cnf.False:
			for s := 0; s < k; s++ {
				tau[s] *= pn[s]
			}
		default:
			for s := 0; s < k; s++ {
				tau[s] *= pp[s] + pn[s]
			}
		}
	}

	sig := b.sig[:k]
	for s := 0; s < k; s++ {
		sig[s] = 1
	}
	for j := 0; j < m; j++ {
		pre, suf := b.pre, b.suf
		for s := 0; s < k; s++ {
			pre[s] = 1
		}
		for v := 0; v < n; v++ {
			o := (v*m + j) * k
			ps := b.pos[o : o+k]
			ns := b.neg[o : o+k]
			prev := pre[v*k : v*k+k]
			next := pre[(v+1)*k : (v+1)*k+k]
			for s := 0; s < k; s++ {
				next[s] = prev[s] * (ps[s] + ns[s])
			}
		}
		for s := 0; s < k; s++ {
			suf[n*k+s] = 1
		}
		for v := n - 1; v >= 0; v-- {
			o := (v*m + j) * k
			ps := b.pos[o : o+k]
			ns := b.neg[o : o+k]
			prev := suf[(v+1)*k : (v+1)*k+k]
			next := suf[v*k : v*k+k]
			for s := 0; s < k; s++ {
				next[s] = prev[s] * (ps[s] + ns[s])
			}
		}
		z := b.z[:k]
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
			pr := pre[v*k : v*k+k]
			sf := suf[(v+1)*k : (v+1)*k+k]
			for s := 0; s < k; s++ {
				z[s] += lits[s] * pr[s] * sf[s]
			}
		}
		for s := 0; s < k; s++ {
			sig[s] *= z[s]
		}
	}

	for s := 0; s < k; s++ {
		out[s] = tau[s] * sig[s]
	}
}

// ensureBlock sizes the block scratch for blocks of up to k samples.
func (e *Engine) ensureBlock(k int) *rtwBlock {
	b := &e.blk
	if k <= b.k {
		return b
	}
	nm := e.n * e.m
	b.k = k
	b.posF = make([]float64, nm*k)
	b.negF = make([]float64, nm*k)
	b.pos = make([]int64, nm*k)
	b.neg = make([]int64, nm*k)
	b.prodP = make([]int64, e.n*k)
	b.prodN = make([]int64, e.n*k)
	b.tau = make([]int64, k)
	b.sig = make([]int64, k)
	b.z = make([]int64, k)
	b.pre = make([]int64, (e.n+1)*k)
	b.suf = make([]int64, (e.n+1)*k)
	b.out = make([]float64, k)
	return b
}

// Result reports an RTW check.
type Result struct {
	Satisfiable bool
	Mean        float64
	StdErr      float64
	Samples     int64
}

// Check estimates mean(S_N) over the given number of samples and applies
// the theta-standard-errors decision rule of the core engine.
func (e *Engine) Check(samples int64, theta float64) Result {
	r, _ := e.CheckCtx(context.Background(), samples, theta)
	return r
}

// CheckCtx is Check with cancellation: the sampling loop advances in
// blocks of the cache-aware e.block size through the integer block
// kernel, polls ctx at every block boundary, and returns the partial
// Result with ctx.Err() when the context ends. The per-source streams
// are identical for any block size, so the batch size never changes
// the verdict. Wide geometries (int64 bound exceeded) take the
// arbitrary-precision kernel instead, same contract.
func (e *Engine) CheckCtx(ctx context.Context, samples int64, theta float64) (Result, error) {
	if e.wide {
		return e.checkWide(ctx, samples, theta)
	}
	var w stats.Welford
	ints := make([]int64, e.block)
	b := e.ensureBlock(e.block)
	for i := int64(0); i < samples; {
		if err := ctx.Err(); err != nil {
			return Result{Mean: w.Mean(), StdErr: w.StdErr(), Samples: w.Count()}, err
		}
		k := int64(len(ints))
		if rem := samples - i; rem < k {
			k = rem
		}
		e.StepBlock(ints[:k])
		for s := int64(0); s < k; s++ {
			b.out[s] = float64(ints[s])
		}
		w.AddN(b.out[:k])
		i += k
	}
	se := w.StdErr()
	sat := false
	if se > 0 && !math.IsInf(se, 0) {
		sat = w.Mean() > theta*se
	} else if w.Mean() > 0 {
		// Zero variance with a positive mean: every sample agreed.
		sat = true
	}
	return Result{Satisfiable: sat, Mean: w.Mean(), StdErr: se, Samples: w.Count()}, nil
}
