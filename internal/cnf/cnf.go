// Package cnf provides the Boolean-formula substrate shared by every
// solver in this repository: literals, clauses, CNF formulas, partial and
// total assignments, evaluation, and structural simplification.
//
// It follows Definitions 1-6 of the paper: a literal is a variable or its
// negation, a clause is a disjunction of literals, a CNF formula is a
// conjunction of clauses, and a formula is satisfied when every clause
// contains at least one true literal.
//
// Literals use the MiniSat packed encoding: variable v (1-based) maps to
// 2v for the positive literal and 2v+1 for the negative one, so a literal
// fits in an int32, negation is a single XOR, and literals index arrays
// densely. DIMACS signed integers are converted at the boundary.
package cnf

import (
	"fmt"
	"math/bits"
	"strings"
)

// Var identifies a Boolean variable. Variables are numbered 1..NumVars;
// 0 is reserved as "no variable".
type Var int32

// MaxVar is the largest variable a Lit can hold: the packed encoding
// keeps 2v+1 in an int32.
const MaxVar = 1<<30 - 1

// Lit is a literal: a variable or its negation, in packed encoding.
type Lit int32

// NewLit returns the literal for v, negated if neg is true.
func NewLit(v Var, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Pos returns the positive literal of v.
func Pos(v Var) Lit { return Lit(v << 1) }

// Neg returns the negative literal of v.
func Neg(v Var) Lit { return Lit(v<<1) | 1 }

// FromDIMACS converts a DIMACS signed integer (+v / -v) to a Lit.
// It panics on 0, which DIMACS reserves as the clause terminator.
func FromDIMACS(x int) Lit {
	switch {
	case x > 0:
		return Pos(Var(x))
	case x < 0:
		return Neg(Var(-x))
	default:
		panic("cnf: literal 0 is not representable")
	}
}

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// IsNeg reports whether the literal is negated.
func (l Lit) IsNeg() bool { return l&1 == 1 }

// Negate returns the complementary literal.
func (l Lit) Negate() Lit { return l ^ 1 }

// DIMACS returns the literal as a DIMACS signed integer.
func (l Lit) DIMACS() int {
	if l.IsNeg() {
		return -int(l >> 1)
	}
	return int(l >> 1)
}

// String renders the literal as x3 or !x3.
func (l Lit) String() string {
	if l.IsNeg() {
		return fmt.Sprintf("!x%d", l.Var())
	}
	return fmt.Sprintf("x%d", l.Var())
}

// Clause is a disjunction of literals.
type Clause []Lit

// NewClause builds a clause from DIMACS-style signed integers.
func NewClause(lits ...int) Clause {
	c := make(Clause, len(lits))
	for i, x := range lits {
		c[i] = FromDIMACS(x)
	}
	return c
}

// Contains reports whether the clause contains the literal l.
func (c Clause) Contains(l Lit) bool {
	for _, x := range c {
		if x == l {
			return true
		}
	}
	return false
}

// IsTautology reports whether the clause contains a literal and its
// negation, making it true under every assignment.
func (c Clause) IsTautology() bool {
	seen := make(map[Lit]bool, len(c))
	for _, l := range c {
		if seen[l.Negate()] {
			return true
		}
		seen[l] = true
	}
	return false
}

// Clone returns a deep copy of the clause.
func (c Clause) Clone() Clause {
	out := make(Clause, len(c))
	copy(out, c)
	return out
}

// String renders the clause as (x1 + !x2 + x3), the paper's notation.
func (c Clause) String() string {
	if len(c) == 0 {
		return "()"
	}
	parts := make([]string, len(c))
	for i, l := range c {
		parts[i] = l.String()
	}
	return "(" + strings.Join(parts, " + ") + ")"
}

// Formula is a CNF formula: a conjunction of clauses over variables
// 1..NumVars.
type Formula struct {
	NumVars int
	Clauses []Clause
}

// New returns an empty formula over n variables.
func New(n int) *Formula {
	return &Formula{NumVars: n}
}

// FromClauses builds a formula from DIMACS-style integer clauses,
// inferring NumVars from the largest variable mentioned.
func FromClauses(clauses ...[]int) *Formula {
	f := &Formula{}
	for _, ints := range clauses {
		c := NewClause(ints...)
		f.AddClause(c)
	}
	return f
}

// AddClause appends a clause, growing NumVars if the clause mentions a
// larger variable.
func (f *Formula) AddClause(c Clause) {
	for _, l := range c {
		if int(l.Var()) > f.NumVars {
			f.NumVars = int(l.Var())
		}
	}
	f.Clauses = append(f.Clauses, c)
}

// Add appends a clause given as DIMACS-style signed integers.
func (f *Formula) Add(lits ...int) {
	f.AddClause(NewClause(lits...))
}

// NumClauses returns the number of clauses (the paper's m).
func (f *Formula) NumClauses() int { return len(f.Clauses) }

// NumLiterals returns the total number of literal occurrences.
func (f *Formula) NumLiterals() int {
	n := 0
	for _, c := range f.Clauses {
		n += len(c)
	}
	return n
}

// sizes returns f's literal occurrences n and a bound v ≤ n on the
// distinct variables they name: the largest name, or n when some name is
// below 1. A renaming table sized by v never fills, and neither a
// declared variable count nor many occurrences of few variables
// inflates it.
func (f *Formula) sizes() (n, v int) {
	top := Var(0)
	for _, c := range f.Clauses {
		n += len(c)
		for _, l := range c {
			if w := l.Var(); w > top {
				top = w
			} else if w < 1 {
				top = MaxVar // no bound but n
			}
		}
	}
	return n, min(n, int(top))
}

// Clone returns a deep copy of the formula.
func (f *Formula) Clone() *Formula {
	g := &Formula{NumVars: f.NumVars, Clauses: make([]Clause, len(f.Clauses))}
	for i, c := range f.Clauses {
		g.Clauses[i] = c.Clone()
	}
	return g
}

// Validate checks structural invariants: no empty formula fields are
// required, but every literal must reference a variable in 1..NumVars.
func (f *Formula) Validate() error {
	for i, c := range f.Clauses {
		for _, l := range c {
			v := l.Var()
			if v < 1 || int(v) > f.NumVars {
				return fmt.Errorf("cnf: clause %d literal %s references variable outside 1..%d",
					i, l, f.NumVars)
			}
		}
	}
	return nil
}

// Simplify returns a copy with tautological clauses dropped and duplicate
// literals removed from each remaining clause, first occurrences kept in
// order. The satisfying set is unchanged. The bool reports whether an
// empty clause is present, which makes the formula trivially
// unsatisfiable.
func (f *Formula) Simplify() (*Formula, bool) {
	n, v := f.sizes()
	ids := newVarIDs(v)
	seen := make([]int32, 2*v) // 1 + the last clause index holding a dense literal
	arena := make(Clause, 0, n)
	g := &Formula{NumVars: f.NumVars, Clauses: make([]Clause, 0, len(f.Clauses))}
	hasEmpty := false
clauses:
	for i, c := range f.Clauses {
		a, stamp := len(arena), int32(i+1)
		for _, l := range c {
			d := ids.id(l.Var())<<1 | int32(l&1)
			if seen[d^1] == stamp { // tautology
				arena = arena[:a]
				continue clauses
			}
			if seen[d] != stamp {
				seen[d] = stamp
				arena = append(arena, l)
			}
		}
		hasEmpty = hasEmpty || len(arena) == a
		g.Clauses = append(g.Clauses, arena[a:len(arena):len(arena)])
	}
	return g, hasEmpty
}

// String renders the formula in the paper's product-of-sums notation.
func (f *Formula) String() string {
	if len(f.Clauses) == 0 {
		return "(true)"
	}
	parts := make([]string, len(f.Clauses))
	for i, c := range f.Clauses {
		parts[i] = c.String()
	}
	return strings.Join(parts, " · ")
}

// DenseLits numbers the variables occurring in f 0, 1, 2, ... in the
// order they first occur. It returns every literal occurrence of f,
// clause by clause and duplicates kept, as 2i for variable i and 2i+1
// for its negation, and vars, where vars[i] is variable i's name in f.
// lits is sized by the literals f holds and vars by a bound on the
// variables they name (see sizes), never by its declared variable count.
func (f *Formula) DenseLits() (lits []int32, vars []Var) {
	n, v := f.sizes()
	ids := newVarIDs(v)
	lits = make([]int32, 0, n)
	for _, c := range f.Clauses {
		for _, l := range c {
			lits = append(lits, ids.id(l.Var())<<1|int32(l&1))
		}
	}
	return lits, ids.orig
}

// varIDs numbers variables 0, 1, 2, ... in the order they are first
// looked up, in an open-addressing table sized by a bound on the
// variables it serves (see Formula.sizes).
type varIDs struct {
	slots []varSlot
	shift uint
	orig  []Var // orig[i] is the variable numbered i
}

type varSlot struct {
	v  Var
	id int32 // 1 + the variable's number; 0 marks a free slot
}

// newVarIDs returns a table for up to n variables.
func newVarIDs(n int) *varIDs {
	b := bits.Len(uint(2 * n))
	return &varIDs{slots: make([]varSlot, 1<<b), shift: 64 - uint(b), orig: make([]Var, 0, n)}
}

// id returns v's number, numbering v next if it is new.
func (t *varIDs) id(v Var) int32 {
	for s := uint64(uint32(v)) * 0x9e3779b97f4a7c15 >> t.shift; ; s = (s + 1) & uint64(len(t.slots)-1) {
		slot := &t.slots[s]
		if slot.id == 0 {
			t.orig = append(t.orig, v)
			*slot = varSlot{v, int32(len(t.orig))}
		}
		if slot.v == v {
			return slot.id - 1
		}
	}
}
