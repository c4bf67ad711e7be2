package logic

import (
	"fmt"

	"repro/internal/cnf"
)

// EquivalenceCNF lowers "are a and b equivalent?" to a decide instance,
// their miter, which is SAT exactly when the formulas disagree on some
// assignment: UNSAT certifies equivalence. Both formulas must be valid
// over the same n variables, which are variables 1..n of the miter, so
// a model read over them tells the pair apart.
//
// Each formula gets one variable per clause, cᵢ ↔ (l₁ ∨ … ∨ lₖ), and an
// output, o ↔ (c₁ ∧ … ∧ cₘ); two last clauses assert oₐ ≠ o_b. With no
// clauses the output's definition is the unit (o), and an empty clause's
// is the unit (¬cᵢ), so the constant formulas need no special case. The
// clauses are written in one pass into one arena: the miter costs what
// the pair's clauses hold, never what n declares.
func EquivalenceCNF(a, b *cnf.Formula) (*cnf.Formula, error) {
	if a.NumVars != b.NumVars {
		return nil, fmt.Errorf("logic: equivalence check needs matching variable counts, got %d vs %d",
			a.NumVars, b.NumVars)
	}
	for i, f := range []*cnf.Formula{a, b} {
		if err := f.Validate(); err != nil {
			return nil, fmt.Errorf("logic: formula %d: %w", i+1, err)
		}
	}
	n := a.NumVars
	top := n + len(a.Clauses) + len(b.Clauses) + 2 // inputs, clause variables, outputs
	switch {
	case n < 0:
		return nil, fmt.Errorf("logic: negative variable count %d", n)
	case n > cnf.MaxVar || top > cnf.MaxVar:
		return nil, fmt.Errorf("logic: the miter of two %d-variable formulas with %d and %d clauses needs a variable past cnf.MaxVar (%d)",
			n, len(a.Clauses), len(b.Clauses), cnf.MaxVar)
	}
	lits := a.NumLiterals() + b.NumLiterals()
	m := &cnf.Formula{NumVars: top, Clauses: make([]cnf.Clause, 0, 2*(top-n)+lits)}
	arena := make([]cnf.Lit, 0, 3*lits+4*(top-n)-2)
	// clause closes what was written to arena since the last clause as a
	// full slice of it, which no later append within capacity moves.
	start := 0
	clause := func(lits ...cnf.Lit) {
		arena = append(arena, lits...)
		m.Clauses = append(m.Clauses, arena[start:len(arena):len(arena)])
		start = len(arena)
	}
	o := cnf.Var(n) // the last variable handed out
	output := func(f *cnf.Formula) cnf.Var {
		c1 := o + 1
		o += cnf.Var(len(f.Clauses)) + 1
		for i, cl := range f.Clauses {
			c := c1 + cnf.Var(i)
			arena = append(arena, cnf.Neg(c))
			clause(cl...)
			for _, l := range cl {
				clause(cnf.Pos(c), l.Negate())
			}
		}
		arena = append(arena, cnf.Pos(o))
		for c := c1; c < o; c++ {
			arena = append(arena, cnf.Neg(c))
		}
		clause()
		for c := c1; c < o; c++ {
			clause(cnf.Neg(o), cnf.Pos(c))
		}
		return o
	}
	oa, ob := output(a), output(b)
	clause(cnf.Pos(oa), cnf.Pos(ob))
	clause(cnf.Neg(oa), cnf.Neg(ob))
	return m, nil
}
