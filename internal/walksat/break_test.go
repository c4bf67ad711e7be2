package walksat

import (
	"slices"
	"testing"

	"repro/internal/cnf"
	"repro/internal/rng"
)

// The first three tests pin the oracle's helpers; each Index twin runs
// the same case on the index.

func TestBreakCountDirect(t *testing.T) {
	// f = (x1+x2)(!x1+x3)(x1) under x1=1, x2=0, x3=0: clauses 0 and 2
	// are satisfied (via x1), clause 1 is not. Flipping x1 unsatisfies
	// both currently-satisfied clauses: break = 2. Flipping x3 breaks
	// nothing (it only helps clause 1): break = 0.
	f := cnf.FromClauses([]int{1, 2}, []int{-1, 3}, []int{1})
	a := cnf.AssignmentFromBools([]bool{true, false, false})
	if got := breakCount(f, a, 1); got != 2 {
		t.Errorf("breakCount(x1) = %d, want 2", got)
	}
	if got := breakCount(f, a, 3); got != 0 {
		t.Errorf("breakCount(x3) = %d, want 0", got)
	}
	// breakCount must not mutate the assignment.
	if a.Get(1) != cnf.True || a.Get(3) != cnf.False {
		t.Error("breakCount mutated the assignment")
	}
}

func TestUnsatClausesList(t *testing.T) {
	f := cnf.FromClauses([]int{1}, []int{-1}, []int{1, 2})
	a := cnf.AssignmentFromBools([]bool{true, false})
	got := unsatClauses(f, a)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("unsatClauses = %v, want [1]", got)
	}
}

func TestWalksatPickPrefersZeroBreak(t *testing.T) {
	// With a zero-break flip available, WalkSAT must take it regardless
	// of the noise parameter (freebie move).
	f := cnf.FromClauses([]int{1, 2}, []int{-2}) // x2 must be 0; x1 free
	a := cnf.AssignmentFromBools([]bool{false, false})
	// Unsatisfied: clause 0. Flipping x1 breaks nothing (clause 1
	// doesn't mention x1). Flipping x2 fixes clause 0 but breaks 1.
	unsat := unsatClauses(f, a)
	counts := map[cnf.Var]int{}
	g := rng.New(99)
	for i := 0; i < 50; i++ {
		counts[walksatPick(f, a, unsat, g, 0.99)]++
	}
	if counts[1] != 50 {
		t.Errorf("zero-break variable not always chosen: %v", counts)
	}
}

// loadIndex builds f's index and loads a into it.
func loadIndex(f *cnf.Formula, a cnf.Assignment) *index {
	x := newIndex(f)
	x.reset(a)
	return x
}

// dense returns the index's number for variable v.
func (x *index) dense(v cnf.Var) int32 { return int32(slices.Index(x.vars, v)) }

func TestIndexBreakCount(t *testing.T) {
	f := cnf.FromClauses([]int{1, 2}, []int{-1, 3}, []int{1})
	a := cnf.AssignmentFromBools([]bool{true, false, false})
	x := loadIndex(f, a)
	if got := x.breakCount(x.dense(1)); got != 2 {
		t.Errorf("breakCount(x1) = %d, want 2", got)
	}
	if got := x.breakCount(x.dense(3)); got != 0 {
		t.Errorf("breakCount(x3) = %d, want 0", got)
	}
	// A duplicate literal counts once; a tautology never breaks.
	f = cnf.FromClauses([]int{1, 1, 2}, []int{1, -1, 3})
	x = loadIndex(f, a)
	if got := x.breakCount(x.dense(1)); got != 1 {
		t.Errorf("breakCount(x1) with a duplicate and a tautology = %d, want 1", got)
	}
}

func TestIndexUnsatSet(t *testing.T) {
	f := cnf.FromClauses([]int{1}, []int{-1}, []int{1, 2})
	x := loadIndex(f, cnf.AssignmentFromBools([]bool{true, false}))
	if x.nUnsat != 1 || x.nthUnsat(0) != 1 {
		t.Errorf("unsatisfied: %d, first %d; want 1 clause, clause 1", x.nUnsat, x.nthUnsat(0))
	}
	// Flipping x1 swaps clauses 0 and 2 for clause 1: the set follows.
	a := cnf.AssignmentFromBools([]bool{true, false})
	x = loadIndex(f, a)
	x.flip(x.dense(1))
	if x.nUnsat != 2 || x.nthUnsat(0) != 0 || x.nthUnsat(1) != 2 {
		t.Errorf("after flipping x1: %d unsatisfied, want clauses 0 and 2", x.nUnsat)
	}
	if a.Get(1) != cnf.False {
		t.Error("flip did not write the assignment")
	}
}

func TestIndexPickPrefersZeroBreak(t *testing.T) {
	f := cnf.FromClauses([]int{1, 2}, []int{-2})
	x := loadIndex(f, cnf.AssignmentFromBools([]bool{false, false}))
	counts := map[int32]int{}
	g := rng.New(99)
	for i := 0; i < 50; i++ {
		counts[x.pick(g, 0.99)]++
	}
	if counts[x.dense(1)] != 50 {
		t.Errorf("zero-break variable not always chosen: %v", counts)
	}
}
