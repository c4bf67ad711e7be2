// Package dpll implements the classic Davis-Putnam-Logemann-Loveland
// complete SAT procedure: depth-first search over variable assignments
// with unit propagation and pure-literal elimination.
//
// It is one of the baseline "complete approaches" the paper positions
// NBL-SAT against (its references [3]-[7] are all DPLL descendants), and
// it doubles as the host solver for the Section V hybrid architecture:
// the branching heuristic is pluggable, so the hybrid package can drive
// the search with NBL-coprocessor mean estimates.
package dpll

import (
	"context"

	"repro/internal/cnf"
)

// Brancher chooses the next decision. Pick is called with the formula
// and the current partial assignment and must return an unassigned
// variable and the polarity to try first. Pick is only called when at
// least one clause is unsatisfied and contains an unassigned literal.
type Brancher interface {
	Pick(f *cnf.Formula, a cnf.Assignment) (cnf.Var, cnf.Value)
}

// Stats counts search effort.
type Stats struct {
	// Decisions is the number of branching choices made.
	Decisions int64
	// Propagations is the number of unit-propagated assignments.
	Propagations int64
	// PureLiterals is the number of pure-literal assignments.
	PureLiterals int64
	// Backtracks is the number of conflicts that forced backtracking.
	Backtracks int64
}

// Solver runs DPLL on one formula.
type Solver struct {
	f     *cnf.Formula
	b     Brancher
	stats Stats

	ctx    context.Context
	ctxErr error
}

// New returns a solver for f using the given brancher (nil selects
// FirstUnassigned).
func New(f *cnf.Formula, b Brancher) *Solver {
	if b == nil {
		b = FirstUnassigned{}
	}
	return &Solver{f: f, b: b}
}

// Solve runs the search. It returns a satisfying assignment and true, or
// nil and false when the formula is unsatisfiable.
func (s *Solver) Solve() (cnf.Assignment, bool) {
	a, ok, _ := s.SolveCtx(context.Background())
	return a, ok
}

// SolveCtx runs the search under a context: cancellation is polled at
// every search node and aborts the recursion with ctx.Err(). A non-nil
// error means the verdict is unknown, not UNSAT.
func (s *Solver) SolveCtx(ctx context.Context) (cnf.Assignment, bool, error) {
	s.ctx, s.ctxErr = ctx, nil
	a := cnf.NewAssignment(s.f.NumVars)
	ok := s.solve(a)
	if s.ctxErr != nil {
		return nil, false, s.ctxErr
	}
	if ok {
		// Complete the assignment: variables never touched by the search
		// (unconstrained) default to false.
		for v := 1; v <= s.f.NumVars; v++ {
			if a.Get(cnf.Var(v)) == cnf.Unassigned {
				a.Set(cnf.Var(v), cnf.False)
			}
		}
		return a, true, nil
	}
	return nil, false, nil
}

// Stats returns the effort counters of the last Solve.
func (s *Solver) Stats() Stats { return s.stats }

// Solve is a convenience one-shot with the default brancher.
func Solve(f *cnf.Formula) (cnf.Assignment, bool) {
	return New(f, nil).Solve()
}

func (s *Solver) solve(a cnf.Assignment) bool {
	if s.ctxErr != nil {
		return false
	}
	// Poll at every node: propagation below scans the whole clause list,
	// so the ctx check is noise, and a coarser stride would let a search
	// whose residual tree is small (e.g. a hybrid brancher degrading to
	// syntactic picks after its probes are cancelled) run to completion
	// instead of surfacing the cancellation.
	if s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			s.ctxErr = err
			return false
		}
	}
	var trail []cnf.Var
	undo := func() {
		for _, v := range trail {
			a.Set(v, cnf.Unassigned)
		}
	}

	// Unit propagation and pure-literal elimination to fixpoint.
	for {
		n := len(trail)
		var conflict bool
		trail, conflict = a.Propagate(s.f.Clauses, trail)
		s.stats.Propagations += int64(len(trail) - n)
		if conflict {
			s.stats.Backtracks++
			undo()
			return false
		}

		// Pure literal elimination: a variable appearing with only one
		// polarity among not-yet-satisfied clauses can be set to it.
		pure := len(trail)
		polarity := make(map[cnf.Var]int8) // 1 pos, 2 neg, 3 both
		for _, c := range s.f.Clauses {
			if a.EvalClause(c) == cnf.True {
				continue
			}
			for _, l := range c {
				if a.Get(l.Var()) != cnf.Unassigned {
					continue
				}
				bit := int8(1)
				if l.IsNeg() {
					bit = 2
				}
				polarity[l.Var()] |= bit
			}
		}
		for v, p := range polarity {
			if p == 1 || p == 2 {
				val := cnf.True
				if p == 2 {
					val = cnf.False
				}
				a.Set(v, val)
				trail = append(trail, v)
			}
		}
		s.stats.PureLiterals += int64(len(trail) - pure)
		if len(trail) == pure {
			break
		}
	}

	// All clauses satisfied?
	if _, open := a.FirstFree(s.f.Clauses); !open {
		return true
	}

	// Branch.
	v, first := s.b.Pick(s.f, a)
	s.stats.Decisions++
	for _, val := range []cnf.Value{first, first.Not()} {
		a.Set(v, val)
		if s.solve(a) {
			return true
		}
		a.Set(v, cnf.Unassigned)
		if s.ctxErr != nil {
			break
		}
	}
	undo()
	return false
}

// FirstUnassigned branches on the first unassigned variable of the first
// unsatisfied clause, trying true first. It is the deterministic
// baseline heuristic.
type FirstUnassigned struct{}

// Pick implements Brancher.
func (FirstUnassigned) Pick(f *cnf.Formula, a cnf.Assignment) (cnf.Var, cnf.Value) {
	v, open := a.FirstFree(f.Clauses)
	if !open {
		panic("dpll: Pick called with every clause satisfied")
	}
	return v, cnf.True
}
