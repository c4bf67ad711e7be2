// Package pipeline makes preprocessing and decomposition first-class
// members of the engine registry instead of a CLI afterthought: the
// "pre" meta-engine — reachable as "pre(<engine>)" through
// solver.NewWith — runs the full solve pipeline
//
//	Simplify -> short-circuit -> Decompose -> fan out -> merge
//
// around any wrapped engine.
//
// Why a pipeline matters here more than in a classical solver: the
// Monte-Carlo NBL engine's signal-to-noise ratio collapses as 4^(n·m)
// (Section III-F of the paper), so it can only decide instances with a
// tiny variables×clauses product. Preprocessing (unit propagation, pure
// literals, subsumption, strengthening, bounded variable elimination)
// shrinks n·m directly, and connected-component decomposition replaces
// one n·m with the per-component products — a variable-disjoint union
// of k small subformulas costs the NBL engine max_i(n_i·m_i), not
// (Σn_i)(Σm_i). Both reductions happen before any noise is drawn.
//
// Decide, count and weighted-count run the same stages:
//
//  1. The reductions the task allows: every Simplify pass for decide,
//     the count-preserving ones for count, none for K'. If they derive
//     the empty clause the answer is UNSAT (a zero count) with zero
//     samples; if they remove every clause the answer is SAT, with a
//     model Reconstruct builds from the forced values alone, or a count
//     of 2^free.
//  2. Decompose splits the reduced formula into variable-disjoint
//     components by union-find over clauses.
//  3. Every component is solved concurrently by a fresh instance of the
//     wrapped engine, all sharing the caller's context (and therefore
//     its deadline budget). The first UNSAT component cancels the rest:
//     the conjunction is already decided.
//  4. Verdicts merge: any UNSAT -> UNSAT; otherwise any UNKNOWN (or
//     error) -> UNKNOWN; otherwise SAT. Decide lifts the component
//     models through Component.Lift and simplify.Reconstruct back to
//     the input variable space when every component produced one; the
//     counting tasks multiply the component counts into 2^free, where
//     free counts the declared variables neither forced nor in a
//     component.
//
// Result.Stats carries the reduction trail: NMBefore/NMAfter bracket
// the preprocessing, Components counts the fan-out, and the wrapped
// engines' effort counters are summed.
package pipeline

import (
	"context"
	"fmt"
	"math/big"
	"strconv"
	"sync"

	"repro/internal/cnf"
	"repro/internal/enginepool"
	"repro/internal/obs"
	"repro/internal/simplify"
	"repro/internal/solver"
)

func init() {
	// The pipeline is count-safe (reduce picks count-preserving
	// stages), so pre(count) and pre(wcount) work; the registry
	// intersects these tasks with the inner engine's own.
	solver.RegisterMeta("pre", func(inner string, cfg solver.Config) (solver.Solver, error) {
		return New(inner, cfg)
	}, solver.TaskDecide, solver.TaskCount, solver.TaskWeightedCount)
}

// Pipeline is the preprocess-and-decompose meta-engine around one inner
// engine expression. Construct with New or via
// solver.NewWith("pre(<engine>)", cfg).
type Pipeline struct {
	inner string
	cfg   solver.Config
}

// New builds the inner engine once under cfg, so whatever its factory
// refuses is refused here, and returns the pipeline. Every component
// solve leases its inner engine from the shared engine pool
// (enginepool.Default): leases are exclusive, so stateful engines never
// share between concurrent components, while components of a repeated
// geometry — across solves, or across requests in a resident service —
// reuse warm instances instead of rebuilding noise banks.
func New(inner string, cfg solver.Config) (*Pipeline, error) {
	if _, err := solver.NewWith(inner, cfg); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	return &Pipeline{inner: inner, cfg: cfg}, nil
}

// Solve implements solver.Solver. Every task takes one path: the
// reductions the task allows, the short-circuits, one Decompose, one
// fan-out and one merge. Only the merge's SAT step differs: decide
// lifts the component models, the counting tasks multiply the
// component counts.
func (p *Pipeline) Solve(ctx context.Context, f *cnf.Formula) (solver.Result, error) {
	counting := p.cfg.Task == solver.TaskCount || p.cfg.Task == solver.TaskWeightedCount
	pre := p.reduce(ctx, f)
	out := solver.Result{Stats: solver.Stats{
		NMBefore: int64(pre.Stats.NMBefore()),
		NMAfter:  int64(pre.Stats.NMAfter()),
	}}
	unsat := func() (solver.Result, error) {
		out.Status = solver.StatusUnsat
		if counting {
			out.Count = new(big.Int)
		}
		return out, nil
	}
	if pre.ProvedUnsat {
		return unsat()
	}

	var comps []*simplify.Component
	if pre.F.NumClauses() > 0 {
		comps = runDecompose(ctx, pre.F)
		out.Stats.Components = int64(len(comps))
	}
	// Every declared variable is exactly one of: forced (a factor of 1
	// in any count), in a component (counted by the inner engine), or
	// free (a factor of 2). The counting reductions eliminate none.
	free := f.NumVars
	for v := 1; counting && v < len(pre.Forced); v++ {
		if pre.Forced[v] != cnf.Unassigned {
			free--
		}
	}
	for _, c := range comps {
		free -= c.F.NumVars
	}
	var (
		count      *big.Int
		model      cnf.Assignment
		haveModels = true
	)
	if counting {
		count = new(big.Int).Lsh(big.NewInt(1), uint(free))
	} else {
		model = cnf.NewAssignment(pre.F.NumVars)
	}
	sat := func() (solver.Result, error) {
		out.Status = solver.StatusSat
		if counting {
			out.Count = count
		} else if haveModels {
			out.Assignment = pre.Reconstruct(model)
		}
		return out, nil
	}
	if len(comps) == 0 {
		// Everything was forced or freed: any completion of the forced
		// values is a model, and there are 2^free of them.
		return sat()
	}

	results, compCtx, cancel, err := p.fanOut(ctx, comps)
	if err != nil {
		return out, err
	}
	defer cancel()

	// Merge. Stats counters sum across components; the first sampling
	// statistic seen survives (component statistics are per-subformula
	// and cannot be combined). One UNSAT component decides the
	// conjunction (a zero count zeroes the product); any unknown or
	// cancelled-loser component leaves the rest unknowable.
	var (
		unknown, zero bool
		firstErr      error
	)
	for i, o := range results {
		if out.Stats.StdErr == 0 && o.r.Stats.StdErr != 0 {
			out.Stats.Mean, out.Stats.StdErr = o.r.Stats.Mean, o.r.Stats.StdErr
		}
		out.Stats.Add(o.r.Stats)
		switch {
		case o.err == nil && o.r.Status == solver.StatusUnsat:
			zero = true
		case o.err == nil && o.r.Status == solver.StatusSat && counting:
			if o.r.Count == nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("pipeline %s component %d/%d: SAT without a count under task %s",
						p.inner, i+1, len(comps), p.cfg.Task)
				}
				continue
			}
			count.Mul(count, o.r.Count)
		case o.err == nil && o.r.Status == solver.StatusSat:
			if o.r.Assignment != nil {
				comps[i].Lift(o.r.Assignment, model)
			} else {
				haveModels = false
			}
		case o.err == nil:
			unknown = true
		case compCtx.Err() != nil && ctx.Err() == nil:
			// Cancelled loser of a decided conjunction, not a failure.
			unknown = true
		default:
			if firstErr == nil {
				firstErr = fmt.Errorf("pipeline %s component %d/%d: %w",
					p.inner, i+1, len(comps), o.err)
			}
		}
	}

	switch {
	case zero:
		return unsat()
	case ctx.Err() != nil:
		return out, ctx.Err()
	case firstErr != nil:
		return out, firstErr
	case unknown:
		out.Status = solver.StatusUnknown
		return out, nil
	}
	return sat()
}

// reduce runs the reductions the task allows. Decide takes every
// Simplify pass. Count keeps only the count-preserving ones: unit
// propagation (a forced variable has one value in every model),
// subsumption and strengthening (both logical equivalences); pure
// literals and BVE preserve only satisfiability, so they are forced
// off. K' takes none: it weights each model by the product over
// clauses of the number of satisfied literals, so even unit propagation
// changes it (for f = (x)·(x+y), K' = 3, since the model x=y=1
// satisfies the second clause twice, but propagating the unit first
// leaves (y) free-standing with K' = 2·1). Its Result is then f itself,
// refuted only by an empty clause, with no simplify span.
// Decomposition is safe for all three: it renames variables without
// touching clause contents, and counts factor over variable-disjoint
// components.
func (p *Pipeline) reduce(ctx context.Context, f *cnf.Formula) *simplify.Result {
	var opts simplify.Options
	switch p.cfg.Task {
	case solver.TaskWeightedCount:
		n, m := f.NumVars, f.NumClauses()
		r := &simplify.Result{F: f, Stats: simplify.Stats{VarsBefore: n, VarsAfter: n, ClausesBefore: m, ClausesAfter: m}}
		for _, c := range f.Clauses {
			r.ProvedUnsat = r.ProvedUnsat || len(c) == 0
		}
		return r
	case solver.TaskCount:
		opts.DisablePure = true
		opts.DisableBVE = true
	}
	return runSimplify(ctx, f, opts)
}

// runSimplify is Simplify with its span: nm before/after and the BVE
// elimination count ride as attrs, so a trace shows exactly how much
// of the 4^(n·m) exponent preprocessing bought before any noise was
// drawn.
func runSimplify(ctx context.Context, f *cnf.Formula, opts simplify.Options) *simplify.Result {
	sp, _ := obs.StartSpan(ctx, "pipeline.simplify")
	pre := simplify.Simplify(f, opts)
	if sp != nil {
		sp.SetAttr("nm_before", strconv.Itoa(pre.Stats.NMBefore()))
		sp.SetAttr("nm_after", strconv.Itoa(pre.Stats.NMAfter()))
		sp.SetAttr("bve_eliminated", strconv.Itoa(pre.Stats.VarsEliminated))
		sp.Finish()
	}
	return pre
}

// runDecompose is Decompose with its span (component count as attr).
func runDecompose(ctx context.Context, f *cnf.Formula) []*simplify.Component {
	sp, _ := obs.StartSpan(ctx, "pipeline.decompose")
	comps := simplify.Decompose(f)
	if sp != nil {
		sp.SetAttr("components", strconv.Itoa(len(comps)))
		sp.Finish()
	}
	return comps
}

// slot is one component's outcome in a fan-out.
type slot struct {
	r   solver.Result
	err error
}

// fanOut solves every component concurrently on inner engines leased
// from the shared pool, all under one derived context. Leases are
// exclusive for the duration of the component solve and released as
// each component finishes, so same-geometry components warm each other
// across solves. One UNSAT component decides the conjunction — for
// counting inner engines UNSAT is exactly a zero count, which zeroes
// the product — so it cancels the rest through the derived context.
//
// The caller must defer the returned cancel, and must do so only after
// merging: the merge distinguishes a cancelled loser from a real error
// by compCtx.Err(), so cancelling before the merge would misread every
// error as a loser.
func (p *Pipeline) fanOut(ctx context.Context, comps []*simplify.Component) ([]slot, context.Context, context.CancelFunc, error) {
	compCtx, cancel := context.WithCancel(ctx)
	results := make([]slot, len(comps))
	var wg sync.WaitGroup
	for i, comp := range comps {
		lease, err := enginepool.Default.Acquire(p.inner, p.cfg, comp.F)
		if err != nil {
			cancel()
			wg.Wait()
			return nil, nil, nil, err
		}
		wg.Add(1)
		go func(i int, comp *simplify.Component, lease *enginepool.Lease) {
			defer wg.Done()
			// One span per component: its geometry, lease warmth and
			// deciding engine (under a portfolio, the winning member) are
			// the trace's answer to "which component was the straggler,
			// who decided it, and did it pay a cold engine build on top".
			sp, solveCtx := obs.StartSpan(compCtx, "pipeline.component")
			if sp != nil {
				sp.SetAttr("component", strconv.Itoa(i))
				sp.SetAttr("vars", strconv.Itoa(comp.F.NumVars))
				sp.SetAttr("clauses", strconv.Itoa(comp.F.NumClauses()))
				sp.SetAttr("warm", strconv.FormatBool(lease.Warm()))
			}
			r, err := lease.Solve(solveCtx)
			lease.Release()
			if sp != nil {
				sp.SetAttr("status", r.Status.String())
				sp.SetAttr("engine", r.Engine)
				sp.Finish()
			}
			results[i] = slot{r, err}
			if err == nil && r.Status == solver.StatusUnsat {
				cancel()
			}
		}(i, comp, lease)
	}
	wg.Wait()
	return results, compCtx, cancel, nil
}
