package cnf

import (
	"testing"
)

func TestCanonicalizeRenamingStable(t *testing.T) {
	// g is f with variables renamed by the permutation 1->3, 2->1, 3->2
	// and with literal order shuffled inside clauses.
	f := FromClauses([]int{1, -2}, []int{2, 3}, []int{-1, -3})
	g := FromClauses([]int{-1, 3}, []int{2, 1}, []int{-2, -3})
	cf, cg := Canonicalize(f), Canonicalize(g)
	if cf.Fingerprint() != cg.Fingerprint() {
		t.Fatalf("renamed formulas fingerprint differently:\n%s\n%s", cf.F, cg.F)
	}
	if cf.F.String() != cg.F.String() {
		t.Fatalf("canonical formulas differ:\n%s\n%s", cf.F, cg.F)
	}
}

func TestCanonicalizeDedupsLiteralsAndClauses(t *testing.T) {
	f := FromClauses([]int{1, 2, 1}, []int{2, 1}, []int{-1})
	c := Canonicalize(f)
	if got := c.F.NumClauses(); got != 2 {
		t.Fatalf("expected the duplicate clause to collapse: %d clauses in %s", got, c.F)
	}
	for _, cl := range c.F.Clauses {
		if len(cl) > 2 {
			t.Fatalf("duplicate literal survived: %s", cl)
		}
	}
}

func TestCanonicalizeDistinguishesDifferentFormulas(t *testing.T) {
	pairs := [][2]*Formula{
		{FromClauses([]int{1, 2}), FromClauses([]int{1, -2})},
		{FromClauses([]int{1}), FromClauses([]int{1}, []int{2})},
		{FromClauses([]int{1, 2}, []int{-1, -2}), FromClauses([]int{1, 2}, []int{-1, 2})},
	}
	for i, p := range pairs {
		if Canonicalize(p[0]).Fingerprint() == Canonicalize(p[1]).Fingerprint() {
			t.Errorf("pair %d: distinct formulas share a fingerprint: %s vs %s", i, p[0], p[1])
		}
	}
}

func TestCanonicalizeEmptyClauseAndEmptyFormula(t *testing.T) {
	empty := Canonicalize(New(3))
	if empty.F.NumClauses() != 0 || empty.F.NumVars != 0 {
		t.Fatalf("empty formula canonical = %v", empty.F)
	}
	withEmpty := &Formula{NumVars: 1, Clauses: []Clause{{}, {Pos(1)}}}
	c := Canonicalize(withEmpty)
	if c.F.NumClauses() != 2 {
		t.Fatalf("empty clause must survive canonicalization: %s", c.F)
	}
	if c.Fingerprint() == Canonicalize(FromClauses([]int{1})).Fingerprint() {
		t.Fatal("formula with empty clause must not collide with one without")
	}
}

func TestCanonicalModelTranslationRoundTrip(t *testing.T) {
	// Variable 2 never occurs; 1 and 3 do.
	f := &Formula{NumVars: 3, Clauses: []Clause{{Pos(3), Neg(1)}}}
	c := Canonicalize(f)
	if c.F.NumVars != 2 {
		t.Fatalf("canonical space should hold 2 occurring variables, got %d", c.F.NumVars)
	}

	model := NewAssignment(3)
	model.Set(1, False)
	model.Set(3, True)
	canon := c.ToCanonical(model)
	if !canon.Satisfies(c.F) {
		t.Fatalf("translated model %s does not satisfy canonical %s", canon, c.F)
	}
	back := c.FromCanonical(canon)
	if back.Get(1) != False || back.Get(3) != True {
		t.Fatalf("round trip lost values: %s", back)
	}
	if back.Get(2) != Unassigned {
		t.Fatalf("non-occurring variable should stay unassigned, got %v", back.Get(2))
	}
	if !back.Satisfies(f) {
		t.Fatalf("round-tripped model %s does not satisfy %s", back, f)
	}
}

// TestCanonicalModelLiftsUndeclaredNames: a formula built without
// Validate may name variables past its declared count, or below 1;
// a model still lifts back through the canonical space and satisfies it.
func TestCanonicalModelLiftsUndeclaredNames(t *testing.T) {
	for _, f := range []*Formula{
		{NumVars: 2, Clauses: []Clause{{Pos(5), Neg(7)}}},
		{NumVars: 2, Clauses: []Clause{{Lit(-4), Pos(1)}}},
	} {
		model := NewAssignment(7)
		model.Set(1, True)
		model.Set(5, True)
		model.Set(7, True)
		c := Canonicalize(f)
		back := c.FromCanonical(c.ToCanonical(model))
		if !back.Satisfies(f) {
			t.Errorf("lifted model %s does not satisfy %s", back, f)
		}
		for _, cl := range f.Clauses {
			for _, l := range cl {
				if v := l.Var(); v > 0 && back.Get(v) != model.Get(v) {
					t.Errorf("%s: x%d lifted to %v, want %v", f, v, back.Get(v), model.Get(v))
				}
			}
		}
	}
}

func TestCanonicalModelTransfersAcrossRenaming(t *testing.T) {
	// The service cache scenario: a model solved for f, stored in
	// canonical space, must satisfy the renamed twin g after translation
	// through g's own map.
	f := FromClauses([]int{1, 2}, []int{-1, -2}, []int{1, -2})
	g := FromClauses([]int{2, 1}, []int{-2, -1}, []int{2, -1}) // swap 1<->2
	cf, cg := Canonicalize(f), Canonicalize(g)
	if cf.Fingerprint() != cg.Fingerprint() {
		t.Fatal("twins must share a fingerprint")
	}
	model := NewAssignment(2)
	model.Set(1, True)
	model.Set(2, False)
	if !model.Satisfies(f) {
		t.Fatal("test model must satisfy f")
	}
	transferred := cg.FromCanonical(cf.ToCanonical(model))
	if !transferred.Satisfies(g) {
		t.Fatalf("transferred model %s does not satisfy the renamed twin %s", transferred, g)
	}
}

func TestCanonicalizeNilAssignments(t *testing.T) {
	c := Canonicalize(FromClauses([]int{1}))
	if c.ToCanonical(nil) != nil || c.FromCanonical(nil) != nil {
		t.Fatal("nil assignments must pass through as nil")
	}
}
