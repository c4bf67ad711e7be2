// Package rtw implements the Random-Telegraph-Wave variant of NBL-SAT
// (Section V, reference [17] "instantaneous noise-based logic"): every
// basis source takes values ±1, so every hyperspace quantity is an
// integer and S_N is evaluated exactly.
//
// RTW carriers have the best decision statistics of all families — the
// fourth moment E[X^4] = E[X^2]^2 = 1 minimizes self-correlation
// variance — and they sidestep the float64 underflow of the paper's
// U[-0.5,0.5] sources entirely, since products never shrink. The E6
// ablation quantifies both effects.
//
// Two kernels cover every geometry, chosen by widthBits, the worst-case
// bit width of |S_N|. Up to 53 bits every intermediate of S_N is an
// integer that float64 holds exactly, so the check is package core's
// shared chunk sampler over noise.RTW: the same workers, convergence
// rounds, vector kernels and verdict as mc with the rtw family. Wider
// geometries run the exact big.Int kernel of wide.go.
package rtw

import (
	"fmt"
	"math/bits"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/noise"
)

// exactBits is the widest |S_N| bound the float64 sampler evaluates
// exactly: float64 holds every integer of up to 53 bits.
const exactBits = 53

// Engine is an exact RTW NBL-SAT engine for one formula.
type Engine struct {
	// mc is the shared sampler over noise.RTW. It follows the formula
	// through every Reset and holds the defaulted options, whichever
	// kernel runs the check.
	mc *core.Engine
	// wide selects the big.Int kernel: the formula's worst-case |S_N|
	// needs more than exactBits bits.
	wide bool
	wk   wideKernel
}

// New builds an RTW engine. opts configures the shared sampler, with
// its Family forced to noise.RTW; the wide kernel reads Seed,
// MaxSamples and Theta from it. New rejects formulas without variables
// or clauses and formulas with an empty clause.
func New(f *cnf.Formula, opts core.Options) (*Engine, error) {
	width, err := widthBits(f)
	if err != nil {
		return nil, err
	}
	opts.Family = noise.RTW
	mc, err := core.NewEngine(f, opts)
	if err != nil {
		return nil, err
	}
	e := &Engine{mc: mc}
	e.target(f, width)
	return e, nil
}

// Reset re-targets the engine at a new formula and seed, restoring
// fresh-engine state, and re-picks the kernel from the new clause
// widths: the bound depends on clause sizes, not just (n, m), so one
// geometry can cross between the kernels. A Reset engine is
// result-identical to a New one under that Seed — the warm-path
// contract the engine lease pool relies on. When the (n, m) geometry
// matches, the sampler's banks and the wide kernel's bank and scratch
// are kept.
func (e *Engine) Reset(f *cnf.Formula, seed uint64) error {
	width, err := widthBits(f)
	if err != nil {
		return err
	}
	if err := e.mc.Reset(f, seed); err != nil {
		return err
	}
	e.target(f, width)
	return nil
}

// target picks the kernel for f, whose |S_N| bound is width bits, and
// re-targets the wide kernel when it runs.
func (e *Engine) target(f *cnf.Formula, width int) {
	e.wide = width > exactBits
	if e.wide {
		e.wk.reset(f, e.mc.Options().Seed)
	}
}

// widthBits returns the worst-case |S_N| bit bound for f: the tau
// bound 2^n plus |Z_j| <= k_j·2^(n-1) per clause. It rejects formulas
// without variables or clauses and empty clauses (the kernels assume
// none). New and Reset share it, so a warm re-target always picks the
// kernel a cold construction would.
func widthBits(f *cnf.Formula) (int, error) {
	n, m := f.NumVars, f.NumClauses()
	if n < 1 || m < 1 {
		return 0, fmt.Errorf("rtw: need n >= 1 and m >= 1, got (%d,%d)", n, m)
	}
	width := n
	for _, c := range f.Clauses {
		if len(c) == 0 {
			return 0, fmt.Errorf("rtw: empty clause")
		}
		width += bits.Len(uint(len(c))) + n - 1
	}
	return width, nil
}
