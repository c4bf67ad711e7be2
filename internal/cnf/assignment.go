package cnf

import (
	"fmt"
	"strings"
)

// Value is a three-valued truth value for partial assignments.
type Value int8

// Truth values. Unassigned is the zero value so fresh assignment arrays
// start fully unassigned.
const (
	Unassigned Value = iota
	False
	True
)

// String returns "?", "0" or "1".
func (v Value) String() string {
	switch v {
	case True:
		return "1"
	case False:
		return "0"
	default:
		return "?"
	}
}

// Not returns the complement; Unassigned maps to Unassigned.
func (v Value) Not() Value {
	switch v {
	case True:
		return False
	case False:
		return True
	default:
		return Unassigned
	}
}

// Assignment maps variables 1..n to truth values. Index 0 is unused.
type Assignment []Value

// NewAssignment returns a fully unassigned assignment over n variables.
func NewAssignment(n int) Assignment {
	return make(Assignment, n+1)
}

// AssignmentFromBools builds a total assignment from a slice of booleans
// for variables 1..len(bs).
func AssignmentFromBools(bs []bool) Assignment {
	a := NewAssignment(len(bs))
	for i, b := range bs {
		if b {
			a[i+1] = True
		} else {
			a[i+1] = False
		}
	}
	return a
}

// AssignmentFromBits builds a total assignment over n variables from the
// low n bits of bits: bit i-1 is the value of variable i. It is the
// canonical enumeration order used by the exact engines.
func AssignmentFromBits(bits uint64, n int) Assignment {
	a := NewAssignment(n)
	for v := 1; v <= n; v++ {
		if bits&(1<<(v-1)) != 0 {
			a[v] = True
		} else {
			a[v] = False
		}
	}
	return a
}

// Get returns the value of v, or Unassigned if v is out of range.
func (a Assignment) Get(v Var) Value {
	if int(v) <= 0 || int(v) >= len(a) {
		return Unassigned
	}
	return a[v]
}

// Set assigns value to variable v.
func (a Assignment) Set(v Var, val Value) { a[v] = val }

// LitValue returns the truth value of a literal under the assignment.
func (a Assignment) LitValue(l Lit) Value {
	v := a.Get(l.Var())
	if l.IsNeg() {
		return v.Not()
	}
	return v
}

// Total reports whether all variables 1..n are assigned.
func (a Assignment) Total() bool {
	for v := 1; v < len(a); v++ {
		if a[v] == Unassigned {
			return false
		}
	}
	return true
}

// Clone returns a copy of the assignment.
func (a Assignment) Clone() Assignment {
	b := make(Assignment, len(a))
	copy(b, a)
	return b
}

// String renders the assignment as the paper's cube notation, e.g.
// "!x1 x2 ?x3" with ? marking unassigned variables. An assignment over
// no variables, nil included, renders as "".
func (a Assignment) String() string {
	if len(a) <= 1 {
		return ""
	}
	parts := make([]string, 0, len(a)-1)
	for v := 1; v < len(a); v++ {
		switch a[v] {
		case True:
			parts = append(parts, fmt.Sprintf("x%d", v))
		case False:
			parts = append(parts, fmt.Sprintf("!x%d", v))
		default:
			parts = append(parts, fmt.Sprintf("?x%d", v))
		}
	}
	return strings.Join(parts, " ")
}

// EvalClause returns the clause's value under a (possibly partial)
// assignment: True if any literal is true, False if all literals are
// false, Unassigned otherwise.
func (a Assignment) EvalClause(c Clause) Value {
	sawUnassigned := false
	for _, l := range c {
		switch a.LitValue(l) {
		case True:
			return True
		case Unassigned:
			sawUnassigned = true
		}
	}
	if sawUnassigned {
		return Unassigned
	}
	return False
}

// Eval returns the formula's value under a (possibly partial) assignment:
// False as soon as any clause is false, True if every clause is true,
// Unassigned otherwise.
func (a Assignment) Eval(f *Formula) Value {
	allTrue := true
	for _, c := range f.Clauses {
		switch a.EvalClause(c) {
		case False:
			return False
		case Unassigned:
			allTrue = false
		}
	}
	if allTrue {
		return True
	}
	return Unassigned
}

// Satisfies reports whether the total or partial assignment makes every
// clause true.
func (a Assignment) Satisfies(f *Formula) bool {
	return a.Eval(f) == True
}

// SatisfiedLiterals returns, for clause c, how many of its literals are
// true under a. The NBL construction weights a satisfying assignment by
// the product over clauses of this count (each satisfied literal
// contributes one cube-subspace term to Z_j); the exact engine uses it to
// predict E[S_N] precisely.
func (a Assignment) SatisfiedLiterals(c Clause) int {
	n := 0
	for _, l := range c {
		if a.LitValue(l) == True {
			n++
		}
	}
	return n
}
