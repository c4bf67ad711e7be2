// Package hybrid implements the CPU + NBL-coprocessor architecture
// sketched in Section V of the paper: a complete DPLL search on the CPU
// whose variable assignment "is guided through the NBL-SAT coprocessor".
//
// Quoting the proposal: iterate over candidate variables bound to 1 and
// to 0, check the reduced S_N in the coprocessor, and "choose the
// binding that results in the highest S_N mean" — the mean being
// directly proportional to the number of satisfying minterms in the
// reduced subspace. The brancher here does exactly that, with the
// coprocessor abstracted so experiments can plug in either the
// Monte-Carlo engine (a faithful simulated coprocessor) or the exact
// infinite-sample oracle (the idealized analog device).
package hybrid

import (
	"context"
	"math/big"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/dpll"
)

// Coprocessor estimates the S_N mean of the hyperspace reduced by a
// partial assignment. Larger means indicate more satisfying minterms in
// the subspace. Implementations must honor ctx: when it ends they may
// return any value (the host search is being cancelled anyway), but they
// must return promptly.
type Coprocessor interface {
	MeanEstimate(ctx context.Context, bound cnf.Assignment) float64
}

// MC is a Monte-Carlo coprocessor backed by the core engine: each probe
// is one reduced NBL-SAT check with the engine's sample budget. The
// engine re-seeds and re-binds its cached evaluators between checks, so
// the thousands of probes a search issues share one noise bank per
// worker instead of rebuilding 2·n·m generators each time, and each
// probe samples through the block kernel.
type MC struct {
	Engine *core.Engine
	// Probes counts coprocessor invocations (for experiment accounting).
	Probes int64
}

// MeanEstimate implements Coprocessor.
func (m *MC) MeanEstimate(ctx context.Context, bound cnf.Assignment) float64 {
	m.Probes++
	r, _ := m.Engine.CheckBoundCtx(ctx, bound)
	return r.Mean
}

// Exact is the idealized infinite-sample coprocessor: it returns the
// closed-form E[S_N] coefficient K'(bound). Means are normalized to the
// weighted count itself (unit-variance sources), which preserves the
// ordering the brancher needs.
type Exact struct {
	F      *cnf.Formula
	Probes int64
}

// MeanEstimate implements Coprocessor.
func (e *Exact) MeanEstimate(ctx context.Context, bound cnf.Assignment) float64 {
	e.Probes++
	count, err := core.WeightedCountCtx(ctx, e.F, bound)
	if err != nil {
		return 0
	}
	k, _ := new(big.Float).SetInt(count).Float64()
	return k
}

// Brancher drives DPLL decisions with coprocessor probes. For every
// unassigned variable and polarity it asks the coprocessor for the
// reduced mean and picks the maximizing (variable, value) pair.
//
// A full sweep costs 2·u probes for u unassigned variables, matching the
// paper's description; Candidates can cap the sweep to the first k
// variables of an unsatisfied clause for a cheaper approximation.
type Brancher struct {
	Cop Coprocessor
	// Candidates, when > 0, bounds how many unassigned variables are
	// probed per decision (taken from unsatisfied clauses first).
	Candidates int
	// Ctx bounds every coprocessor probe; nil means background. The
	// hosting DPLL search polls the same context, so a cancelled Ctx
	// aborts both the probes and the search.
	Ctx context.Context
}

// Pick implements dpll.Brancher.
func (b *Brancher) Pick(f *cnf.Formula, a cnf.Assignment) (cnf.Var, cnf.Value) {
	ctx := b.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	cands := candidateVars(f, a, b.Candidates)
	if len(cands) == 0 || ctx.Err() != nil {
		// No candidates, or the run is being cancelled: skip the probe
		// sweep and let the host search (which polls the same context)
		// wind down on the syntactic heuristic.
		return dpll.FirstUnassigned{}.Pick(f, a)
	}
	bound := a.Clone()
	bestVar, bestVal, bestMean := cnf.Var(0), cnf.True, -1.0
	for _, v := range cands {
		for _, val := range []cnf.Value{cnf.True, cnf.False} {
			bound.Set(v, val)
			if est := b.Cop.MeanEstimate(ctx, bound); est > bestMean {
				bestVar, bestVal, bestMean = v, val, est
			}
		}
		bound.Set(v, cnf.Unassigned)
	}
	if bestVar == 0 || bestMean <= 0 {
		// Coprocessor sees no satisfying minterm either way (the current
		// partial assignment is already doomed, or the MC estimate
		// drowned in noise): fall back to the syntactic heuristic and
		// let DPLL's conflict handling do its job.
		return dpll.FirstUnassigned{}.Pick(f, a)
	}
	return bestVar, bestVal
}

// candidateVars lists unassigned variables, preferring those in
// unsatisfied clauses, capped at limit (0 = no cap).
func candidateVars(f *cnf.Formula, a cnf.Assignment, limit int) []cnf.Var {
	seen := make(map[cnf.Var]bool)
	var out []cnf.Var
	add := func(v cnf.Var) bool {
		if seen[v] || a.Get(v) != cnf.Unassigned {
			return true
		}
		seen[v] = true
		out = append(out, v)
		return limit <= 0 || len(out) < limit
	}
	for _, c := range f.Clauses {
		if a.EvalClause(c) == cnf.True {
			continue
		}
		for _, l := range c {
			if !add(l.Var()) {
				return out
			}
		}
	}
	return out
}

// Result reports a hybrid solve.
type Result struct {
	Assignment  cnf.Assignment
	Satisfiable bool
	DPLL        dpll.Stats
	Probes      int64
}

// SolveExact runs DPLL guided by the idealized exact coprocessor.
func SolveExact(f *cnf.Formula) Result {
	cop := &Exact{F: f}
	// solveCtx fails only when its context ends, which Background never does.
	r, _ := solveCtx(context.Background(), f, cop, 0)
	r.Probes = cop.Probes
	return r
}

// SolveMC runs DPLL guided by a Monte-Carlo coprocessor built from the
// given engine options.
func SolveMC(f *cnf.Formula, opts core.Options) (Result, error) {
	eng, err := core.NewEngine(f, opts)
	if err != nil {
		return Result{}, err
	}
	cop := &MC{Engine: eng}
	r, err := solveCtx(context.Background(), f, cop, 0)
	r.Probes = cop.Probes
	return r, err
}

func solveCtx(ctx context.Context, f *cnf.Formula, cop Coprocessor, candidates int) (Result, error) {
	s := dpll.New(f, &Brancher{Cop: cop, Candidates: candidates, Ctx: ctx})
	a, ok, err := s.SolveCtx(ctx)
	return Result{Assignment: a, Satisfiable: ok, DPLL: s.Stats()}, err
}
