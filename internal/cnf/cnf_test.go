package cnf

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

func TestLitEncoding(t *testing.T) {
	for v := Var(1); v <= 100; v++ {
		p, n := Pos(v), Neg(v)
		if p.Var() != v || n.Var() != v {
			t.Fatalf("Var() mismatch for variable %d", v)
		}
		if p.IsNeg() || !n.IsNeg() {
			t.Fatalf("polarity mismatch for variable %d", v)
		}
		if p.Negate() != n || n.Negate() != p {
			t.Fatalf("Negate() not involutive for variable %d", v)
		}
		if NewLit(v, false) != p || NewLit(v, true) != n {
			t.Fatalf("NewLit mismatch for variable %d", v)
		}
	}
}

func TestLitDIMACSRoundTrip(t *testing.T) {
	f := func(raw int16) bool {
		x := int(raw)
		if x == 0 {
			return true // not representable, checked separately
		}
		return FromDIMACS(x).DIMACS() == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromDIMACSZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromDIMACS(0) must panic")
		}
	}()
	FromDIMACS(0)
}

func TestLitString(t *testing.T) {
	if s := Pos(3).String(); s != "x3" {
		t.Errorf("Pos(3) = %q", s)
	}
	if s := Neg(7).String(); s != "!x7" {
		t.Errorf("Neg(7) = %q", s)
	}
}

func TestClauseBasics(t *testing.T) {
	c := NewClause(1, -2, 3)
	if len(c) != 3 {
		t.Fatalf("len = %d", len(c))
	}
	if !c.Contains(Pos(1)) || !c.Contains(Neg(2)) || c.Contains(Neg(1)) {
		t.Error("Contains misreports membership")
	}
	if c.String() != "(x1 + !x2 + x3)" {
		t.Errorf("String = %q", c.String())
	}
	if c.IsTautology() {
		t.Error("non-tautology misdetected")
	}
	if !NewClause(1, -2, -1).IsTautology() {
		t.Error("tautology (x1 + !x2 + !x1) not detected")
	}
}

func TestFormulaConstruction(t *testing.T) {
	f := New(3)
	f.Add(1, 2)
	f.Add(-1, -2, 3)
	if f.NumVars != 3 || f.NumClauses() != 2 || f.NumLiterals() != 5 {
		t.Errorf("dims: vars=%d clauses=%d lits=%d", f.NumVars, f.NumClauses(), f.NumLiterals())
	}
	f.Add(5) // should grow NumVars
	if f.NumVars != 5 {
		t.Errorf("NumVars = %d after adding x5", f.NumVars)
	}
	if err := f.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestFormulaValidateCatchesRange(t *testing.T) {
	f := New(2)
	f.Clauses = append(f.Clauses, Clause{Pos(9)}) // bypass AddClause growth
	if err := f.Validate(); err == nil {
		t.Error("Validate missed out-of-range variable")
	}
}

func TestFormulaCloneIsDeep(t *testing.T) {
	f := FromClauses([]int{1, 2}, []int{-1, -2})
	g := f.Clone()
	g.Clauses[0][0] = Neg(9)
	if f.Clauses[0][0] != Pos(1) {
		t.Error("Clone shares clause storage")
	}
}

func TestFormulaString(t *testing.T) {
	f := FromClauses([]int{1, 2}, []int{-1, -2})
	want := "(x1 + x2) · (!x1 + !x2)"
	if f.String() != want {
		t.Errorf("String = %q, want %q", f.String(), want)
	}
	if New(0).String() != "(true)" {
		t.Error("empty formula should render as (true)")
	}
}

func TestSimplify(t *testing.T) {
	f := New(3)
	f.Add(1, -1, 2) // tautology: dropped
	f.Add(2, 2, 3)  // duplicate literal: deduped
	g, empty := f.Simplify()
	if empty {
		t.Error("no empty clause expected")
	}
	if g.NumClauses() != 1 || len(g.Clauses[0]) != 2 {
		t.Errorf("Simplify result: %v", g)
	}

	h := New(1)
	h.Clauses = append(h.Clauses, Clause{})
	_, empty = h.Simplify()
	if !empty {
		t.Error("empty clause not reported")
	}
}

func TestDenseLits(t *testing.T) {
	// Variables are numbered in first-occurrence order whatever their
	// names, duplicates stay, and nothing scales with the declared count.
	f := FromClauses([]int{9, -4, 9}, []int{-9, 1 << 29})
	f.NumVars = MaxVar
	lits, vars := f.DenseLits()
	if want := []int32{0, 3, 0, 1, 4}; !slices.Equal(lits, want) {
		t.Errorf("lits = %v, want %v", lits, want)
	}
	if want := []Var{9, 4, 1 << 29}; !slices.Equal(vars, want) {
		t.Errorf("vars = %v, want %v", vars, want)
	}
}

func TestValueNot(t *testing.T) {
	if True.Not() != False || False.Not() != True || Unassigned.Not() != Unassigned {
		t.Error("Value.Not broken")
	}
	if True.String() != "1" || False.String() != "0" || Unassigned.String() != "?" {
		t.Error("Value.String broken")
	}
}

func TestAssignmentBasics(t *testing.T) {
	a := NewAssignment(3)
	if a.Total() {
		t.Error("fresh assignment cannot be total")
	}
	a.Set(1, True)
	a.Set(2, False)
	a.Set(3, True)
	if !a.Total() {
		t.Error("all variables set: should be total")
	}
	if a.LitValue(Pos(1)) != True || a.LitValue(Neg(1)) != False {
		t.Error("LitValue polarity handling broken")
	}
	if a.Get(0) != Unassigned || a.Get(99) != Unassigned {
		t.Error("out-of-range Get should be Unassigned")
	}
	if a.String() != "x1 !x2 x3" {
		t.Errorf("String = %q", a.String())
	}
}

// TestAssignmentString covers the cube notation down to no variables:
// a nil or empty Assignment, such as an UNSAT Result's model, formats
// as "" instead of panicking.
func TestAssignmentString(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    Assignment
		want string
	}{
		{"nil", nil, ""},
		{"empty", Assignment{}, ""},
		{"no variables", NewAssignment(0), ""},
		{"one unassigned", NewAssignment(1), "?x1"},
		{"one true", AssignmentFromBools([]bool{true}), "x1"},
		{"one false", AssignmentFromBools([]bool{false}), "!x1"},
	} {
		if got := tc.a.String(); got != tc.want {
			t.Errorf("%s: String = %q, want %q", tc.name, got, tc.want)
		}
		if got := fmt.Sprint(tc.a); got != tc.want {
			t.Errorf("%s: %%v = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestAssignmentFromBits(t *testing.T) {
	a := AssignmentFromBits(0b101, 3)
	if a.Get(1) != True || a.Get(2) != False || a.Get(3) != True {
		t.Errorf("FromBits(0b101): %s", a)
	}
	b := AssignmentFromBools([]bool{false, true})
	if b.Get(1) != False || b.Get(2) != True {
		t.Errorf("FromBools: %s", b)
	}
}

func TestEvalPaperExample(t *testing.T) {
	// Section III-A example: S = (x1+x2)·(!x1+!x2+x3); <0,0,1> satisfies
	// the second clause but falsifies the first.
	f := FromClauses([]int{1, 2}, []int{-1, -2, 3})
	a := AssignmentFromBools([]bool{false, false, true})
	if a.Eval(f) != False {
		t.Error("<0,0,1> should falsify (x1+x2)")
	}
	b := AssignmentFromBools([]bool{true, false, true})
	if !b.Satisfies(f) {
		t.Error("<1,0,1> should satisfy the formula")
	}
}

func TestEvalPartial(t *testing.T) {
	f := FromClauses([]int{1, 2}, []int{-1, 3})
	a := NewAssignment(3)
	if a.Eval(f) != Unassigned {
		t.Error("fully unassigned formula should be Unassigned")
	}
	a.Set(1, True)
	// clause 1 satisfied, clause 2 pending on x3
	if a.Eval(f) != Unassigned {
		t.Error("partially determined formula should be Unassigned")
	}
	a.Set(3, True)
	if a.Eval(f) != True {
		t.Error("both clauses now satisfied")
	}
}

func TestEvalEmptyClauseIsFalse(t *testing.T) {
	f := New(1)
	f.Clauses = append(f.Clauses, Clause{})
	a := AssignmentFromBools([]bool{true})
	if a.Eval(f) != False {
		t.Error("empty clause must evaluate False")
	}
}

func TestSatisfiedLiterals(t *testing.T) {
	c := NewClause(1, 2, -3)
	a := AssignmentFromBools([]bool{true, true, true})
	if got := a.SatisfiedLiterals(c); got != 2 {
		t.Errorf("SatisfiedLiterals = %d, want 2", got)
	}
}

func TestAssignmentCloneIndependent(t *testing.T) {
	a := AssignmentFromBools([]bool{true, false})
	b := a.Clone()
	b.Set(1, False)
	if a.Get(1) != True {
		t.Error("Clone shares storage")
	}
}

// Property: Eval on a total assignment equals direct clause-by-clause
// boolean evaluation.
func TestEvalMatchesBruteForceQuick(t *testing.T) {
	f := FromClauses([]int{1, -2, 3}, []int{-1, 2}, []int{2, -3}, []int{-1, -3})
	check := func(bitsRaw uint8) bool {
		bits := uint64(bitsRaw % 8)
		a := AssignmentFromBits(bits, 3)
		want := true
		for _, c := range f.Clauses {
			clauseTrue := false
			for _, l := range c {
				val := bits&(1<<(int(l.Var())-1)) != 0
				if l.IsNeg() {
					val = !val
				}
				if val {
					clauseTrue = true
					break
				}
			}
			want = want && clauseTrue
		}
		return a.Satisfies(f) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
