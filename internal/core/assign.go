package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/cnf"
	"repro/internal/simplify"
)

// ErrUnsat is returned by Assign and Cube when the initial check deems
// the instance unsatisfiable.
var ErrUnsat = errors.New("core: instance is unsatisfiable")

// ErrInconsistent is returned when the Monte-Carlo checks of Algorithm 2
// contradict each other or unit propagation (both polarities of some
// variable test unsatisfiable, or propagation refutes a formula the
// first check found satisfiable). It indicates an insufficient sample budget for the
// instance's SNR, not a logic error; raising MaxSamples or Theta
// resolves it.
var ErrInconsistent = errors.New("core: inconsistent reduced checks (raise sample budget)")

// AssignResult reports the outcome of Algorithm 2.
type AssignResult struct {
	// Assignment is the recovered satisfying assignment.
	Assignment cnf.Assignment
	// Checks holds the sampled check results: Checks[0] is the initial
	// Algorithm-1 check, followed by one entry per sampled reduced check
	// (Assign: at most n, so at most n+1 in all) and then two per
	// variable (Cube).
	Checks []Result
}

// Assign implements Algorithm 2: it first runs the Algorithm-1 check,
// then recovers a satisfying assignment by binding each variable in
// turn, with at most n reduced checks: at most n+1 NBL-SAT check
// operations in all, the paper's linear bound.
//
// Each reduced check asks "does a solution exist in the x_i subspace?"
// with x_i bound to 1. If it is satisfiable the binding is kept;
// otherwise x_i must be 0 (the instance being known satisfiable, per
// the paper's argument in Section III-E). The question is put to the
// formula conditioned by the bindings so far and closed under unit
// propagation (simplify.Condition), and only what propagation leaves
// open is sampled:
//
//   - a variable that propagation forces (the formula's own unit
//     clauses included) takes its forced value, and one that no longer
//     occurs is free and takes 1, both without a check;
//   - a binding x_i = 1 that propagation refutes fixes x_i = 0, and one
//     that leaves no clause ends the loop satisfiable;
//   - any other binding samples the compacted residual, whose n'·m' is
//     below the n·m of the full hyperspace, under the next check seed
//     of the engine's sequence.
//
// Whenever the sampled checks answer correctly, the recovered model is
// the one ExactAssign returns. A binding x_i = 0 that propagation
// refutes after x_i = 1 tested unsatisfiable means some sampled check
// was wrong: Assign then returns ErrInconsistent at once.
func (e *Engine) Assign() (AssignResult, error) {
	return e.AssignCtx(context.Background())
}

// AssignCtx is Assign with cancellation: every sampled check polls ctx,
// so the loop aborts with ctx.Err() as soon as the context ends.
func (e *Engine) AssignCtx(ctx context.Context) (AssignResult, error) {
	var out AssignResult
	first, err := e.CheckCtx(ctx)
	out.Checks = append(out.Checks, first)
	if err != nil {
		return out, err
	}
	if !first.Satisfiable {
		return out, ErrUnsat
	}

	r := simplify.Condition(e.f, nil) // the formula's own unit clauses
	if r.ProvedUnsat {
		return out, fmt.Errorf("%w: unit propagation refutes the formula the first check found satisfiable",
			ErrInconsistent)
	}
	for v := 1; v <= e.f.NumVars && r.F.NumClauses() > 0; v++ {
		x := cnf.Var(v)
		if r.Forced.Get(x) != cnf.Unassigned || !slices.Contains(r.VarMap, x) {
			continue // forced, or free
		}
		bound := r.Forced.Clone()
		bound.Set(x, cnf.True)
		t := simplify.Condition(e.f, bound)
		refuted := t.ProvedUnsat
		if !refuted && t.F.NumClauses() > 0 {
			c, err := e.checkResidual(ctx, t.F)
			out.Checks = append(out.Checks, c)
			if err != nil {
				return out, err
			}
			refuted = !c.Satisfiable
		}
		if refuted {
			bound.Set(x, cnf.False)
			if t = simplify.Condition(e.f, bound); t.ProvedUnsat {
				return out, fmt.Errorf("%w: x%d tests unsatisfiable under both values", ErrInconsistent, v)
			}
		}
		r = t
	}

	a := r.Forced
	for v := 1; v < len(a); v++ {
		if a[v] == cnf.Unassigned {
			a[v] = cnf.True
		}
	}
	out.Assignment = a
	if !a.Satisfies(e.f) {
		return out, fmt.Errorf("%w: recovered assignment %s does not satisfy the formula",
			ErrInconsistent, a)
	}
	return out, nil
}

// checkResidual runs Algorithm 1 on res, a residual of the engine's
// formula, with the next check seed of the engine's sequence. res gets
// a scratch engine of its own, so the per-worker banks built for the
// engine's formula stay in place for its next check; Reset would
// restart the sequence and replay the first check's streams.
func (e *Engine) checkResidual(ctx context.Context, res *cnf.Formula) (Result, error) {
	e.checkSeq++
	sub := &Engine{f: res, opts: e.opts}
	return sub.check(ctx, cnf.NewAssignment(res.NumVars), e.checkSeq)
}

// Cube implements the satisfying-cube variant sketched at the end of
// Section III-E. The paper proposes testing each variable under both
// polarities and omitting it from the result when both reduced checks
// are satisfiable. Taken literally that rule is unsound — on
// (x1+x2)·(!x1+!x2) both polarities of both variables test satisfiable,
// yet the empty cube does not satisfy the formula. We therefore use the
// paper's two-checks-per-variable rule as the don't-care *candidate*
// filter, starting from the minterm recovered by Algorithm 2, and only
// actually drop a candidate when three-valued evaluation confirms every
// clause remains covered by the shrunken cube. The check count stays
// linear: at most n+1 for Assign plus at most 2n candidate checks.
func (e *Engine) Cube() (AssignResult, error) {
	out, err := e.Assign()
	if err != nil {
		return out, err
	}
	cube := out.Assignment

	probe := cnf.NewAssignment(e.f.NumVars)
	for v := 1; v <= e.f.NumVars; v++ {
		// Paper's candidate test: both polarities of x_v satisfiable in
		// the hyperspace reduced by the *other* variables' current cube
		// values.
		copyExcept(probe, cube, cnf.Var(v))
		probe.Set(cnf.Var(v), cnf.True)
		rT := e.CheckBound(probe)
		probe.Set(cnf.Var(v), cnf.False)
		rF := e.CheckBound(probe)
		out.Checks = append(out.Checks, rT, rF)
		if !rT.Satisfiable || !rF.Satisfiable {
			continue // x_v matters; keep its binding
		}
		// Soundness guard: drop x_v only if the cube still covers every
		// clause on its own.
		saved := cube.Get(cnf.Var(v))
		cube.Set(cnf.Var(v), cnf.Unassigned)
		if cube.Eval(e.f) != cnf.True {
			cube.Set(cnf.Var(v), saved)
		}
	}
	out.Assignment = cube
	if cube.Eval(e.f) != cnf.True {
		return out, fmt.Errorf("%w: recovered cube %s does not satisfy the formula",
			ErrInconsistent, cube)
	}
	return out, nil
}

// copyExcept copies src into dst leaving variable skip untouched.
func copyExcept(dst, src cnf.Assignment, skip cnf.Var) {
	for v := 1; v < len(src); v++ {
		if cnf.Var(v) != skip {
			dst.Set(cnf.Var(v), src.Get(cnf.Var(v)))
		}
	}
}
