package rtw

import (
	"context"
	"math/big"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/hyperspace"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/solver"
)

// The wide kernel: exact RTW evaluation for geometries whose worst-case
// |S_N| bound exceeds the 53 bits float64 holds (uf20-91 needs ~1900
// bits).
//
// The trick is that with ±1 sources almost nothing is actually big.
// Every per-clause disjunction factors as
//
//	Z_j = c_j · 2^(n-1),  c_j = Σ_l lit_l · sgn(prod_{k≠v(l)} g_k),
//
// where g_k = N^j_{x_k} + N^j_{!x_k} ∈ {-2, 0, 2}: each leave-one-out
// product over n-1 factors of magnitude 2 is ±2^(n-1) or vanishes. The
// same holds for tau_N — every variable contributes ±2 or 0 — so the
// whole sample assembles as
//
//	S_N = t · (prod_j c_j) · 2^(n + m·(n-1))
//
// with t ∈ {±1} and every c_j a clause-width-bounded integer. The only
// big.Int operations are the c-product (m small multiplications), one
// left shift, and the two moment accumulators. Better still, a sample
// is exactly zero as soon as any tau factor or any c_j vanishes — for
// large n·m that is almost every sample (a clause survives only when at
// most one of its n variable factors is zero, probability ≈
// (n+1)/2^n), so the expensive assembly is rare and the kernel's cost
// is dominated by drawing the 2·n·m source samples. Those come one
// hyperspace.BlockSize block of every source per bank call, through the
// vector fill kernel.
//
// The kernel keeps its own cursor on the bank's sample-index axis: the
// bank is seeded with the engine seed, each check draws the samples
// after the previous one's, and Reset rewinds the cursor to zero.
//
// The decision statistic is computed from the exact big.Int moments in
// big.Float (mean, standard error, and the theta comparison), so the
// verdict never suffers float64 overflow even though the reported
// Stats fold the mean down to a float64 at the end.

// wideKernel holds the wide kernel's per-engine state.
type wideKernel struct {
	f      *cnf.Formula
	bank   *noise.Bank
	cursor uint64

	k        int       // samples per bank call
	pos, neg []float64 // one block of every source, [(i*m+j)*k+s]
	pp, pn   []float64 // one variable's branch products, [s]
	tau      []float64 // tau_N / 2^n, in {-1, 0, 1}, [s]

	s, sq, c  big.Int // current sample, its square, small-int multiplier
	sum, sum2 big.Int // exact Σ S and Σ S²
}

// reset re-targets the kernel at f with its bank seeded by seed and its
// cursor at zero, keeping the bank and scratch when (n, m) repeats.
func (w *wideKernel) reset(f *cnf.Formula, seed uint64) {
	n, m := f.NumVars, f.NumClauses()
	if bn, bm := w.dims(); bn != n || bm != m {
		k := hyperspace.BlockSize(n, m)
		*w = wideKernel{
			bank: noise.NewBank(noise.RTW, seed, n, m),
			k:    k,
			pos:  make([]float64, n*m*k), neg: make([]float64, n*m*k),
			pp: make([]float64, k), pn: make([]float64, k), tau: make([]float64, k),
		}
	} else {
		w.bank.Reseed(seed)
	}
	w.f = f
	w.cursor = 0
}

// dims returns the geometry of the kernel's bank, (0, 0) before the
// first reset.
func (w *wideKernel) dims() (n, m int) {
	if w.bank == nil {
		return 0, 0
	}
	return w.bank.Dims()
}

// fill draws the next k samples of every source at the cursor and
// evaluates tau_N for each, up to its power of two: the per-variable
// branch products are ±1, and each variable contributes half its
// branch sum, which is -1, 0 or 1.
func (w *wideKernel) fill(k int) {
	n, m := w.bank.Dims()
	nmk := n * m * k
	w.bank.FillBlockAt(w.cursor, k, w.pos[:nmk], w.neg[:nmk])
	w.cursor += uint64(k)
	tau, pp, pn := w.tau[:k], w.pp[:k], w.pn[:k]
	for s := range tau {
		tau[s] = 1
	}
	for i := 0; i < n; i++ {
		o := i * m * k
		copy(pp, w.pos[o:o+k])
		copy(pn, w.neg[o:o+k])
		for j := 1; j < m; j++ {
			o += k
			ps, ns := w.pos[o:o+k], w.neg[o:o+k]
			for s := range pp {
				pp[s] *= ps[s]
				pn[s] *= ns[s]
			}
		}
		for s := range tau {
			tau[s] *= 0.5 * (pp[s] + pn[s])
		}
	}
}

// sample assembles sample s of the k-sample block fill drew into dst
// and reports whether it is nonzero (dst is left unspecified when it is
// zero). Per clause it locates the zero variable factors, folds the
// nonzero signs and assembles c_j.
func (w *wideKernel) sample(k, s int, dst *big.Int) bool {
	if w.tau[s] == 0 {
		return false
	}
	n, m := w.bank.Dims()
	dst.SetInt64(int64(w.tau[s]))
	shift := uint(n)
	for j := 0; j < m; j++ {
		zeros, zi := 0, -1
		sgnAll := 1.0 // product of signs of the nonzero g_v
		for v := 0; v < n; v++ {
			o := (v*m+j)*k + s
			if g := w.pos[o] + w.neg[o]; g == 0 {
				zeros++
				if zeros >= 2 {
					return false
				}
				zi = v
			} else if g < 0 {
				sgnAll = -sgnAll
			}
		}
		c := 0.0
		for _, l := range w.f.Clauses[j] {
			v := int(l.Var()) - 1
			o := (v*m+j)*k + s
			lit := w.pos[o]
			if l.IsNeg() {
				lit = w.neg[o]
			}
			switch {
			case zeros == 1:
				// Only the literal sitting on the zero factor survives:
				// every other leave-one-out product contains g_zi = 0.
				if v == zi {
					c += lit * sgnAll
				}
			case w.pos[o]+w.neg[o] < 0:
				// sgn(prod_{v'≠v} g_v') = sgnAll · sgn(g_v).
				c -= lit * sgnAll
			default:
				c += lit * sgnAll
			}
		}
		if c == 0 {
			return false
		}
		dst.Mul(dst, w.c.SetInt64(int64(c)))
		shift += uint(n - 1)
	}
	dst.Lsh(dst, shift)
	return true
}

// check draws the given number of exact S_N values from the cursor,
// block by block, and applies core's verdict rule (z above theta, with
// a positive stderr) and SNR gate to their exact moments. It polls ctx
// at every block boundary and returns the partial Stats with ctx.Err()
// when the context ends. The span gets one end-of-check trajectory
// point.
func (w *wideKernel) check(ctx context.Context, samples int64, theta float64, sp *obs.Span) (solver.Result, error) {
	w.sum.SetInt64(0)
	w.sum2.SetInt64(0)
	var count int64
	var err error
	for count < samples {
		if err = ctx.Err(); err != nil {
			break
		}
		k := w.k
		if rem := samples - count; rem < int64(k) {
			k = int(rem)
		}
		w.fill(k)
		for s := 0; s < k; s++ {
			if w.sample(k, s, &w.s) {
				w.sum.Add(&w.sum, &w.s)
				w.sq.Mul(&w.s, &w.s)
				w.sum2.Add(&w.sum2, &w.sq)
			}
		}
		count += int64(k)
	}
	sat, mean, stderr := moments(&w.sum, &w.sum2, count, theta)
	out := solver.Result{Stats: solver.Stats{
		Samples: count, Mean: mean, StdErr: stderr,
		// The fill runs the vector kernel; the evaluation is big.Int.
		FillAccel: noise.FillAccelKernel(noise.RTW), EvalAccel: "none",
	}}
	if sp != nil && count > 0 {
		dist := 0.0
		if stderr > 0 {
			dist = mean/stderr - theta
		}
		sp.Point(obs.TrajPoint{
			Round: 1, Samples: count,
			Mean: mean, StdErr: stderr, Dist: dist,
		})
	}
	if err != nil {
		return out, err
	}
	out.Status = core.CheckStatus(sat, w.f.NumVars, w.f.NumClauses(), count)
	return out, nil
}

// moments turns the exact moments into the decision, the mean and its
// standard error. All comparisons happen in big.Float so the verdict is
// immune to float64 overflow; only the reported mean and stderr are
// folded down. Without variance there is no stderr and no SAT.
func moments(sum, sum2 *big.Int, count int64, theta float64) (sat bool, mean, stderr float64) {
	if count == 0 {
		return false, 0, 0
	}
	const prec = 128
	nF := new(big.Float).SetPrec(prec).SetInt64(count)
	mu := new(big.Float).SetPrec(prec).SetInt(sum)
	mu.Quo(mu, nF)

	se := new(big.Float).SetPrec(prec) // stays 0 when count == 1 or variance <= 0
	if count > 1 {
		// var = (Σx² - (Σx)²/n) / (n-1); se = sqrt(var/n).
		sq := new(big.Float).SetPrec(prec).SetInt(sum)
		sq.Mul(sq, sq)
		sq.Quo(sq, nF)
		v := new(big.Float).SetPrec(prec).SetInt(sum2)
		v.Sub(v, sq)
		if v.Sign() > 0 {
			v.Quo(v, new(big.Float).SetPrec(prec).SetInt64(count-1))
			v.Quo(v, nF)
			se.Sqrt(v)
		}
	}

	if se.Sign() > 0 {
		bound := new(big.Float).SetPrec(prec).SetFloat64(theta)
		bound.Mul(bound, se)
		sat = mu.Cmp(bound) > 0
	}
	mean, _ = mu.Float64()
	stderr, _ = se.Float64()
	return sat, mean, stderr
}
