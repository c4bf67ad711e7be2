package cnf_test

import (
	"slices"
	"testing"

	"repro/internal/cnf"
	"repro/internal/rng"
)

// fuzzFormula decodes fuzz bytes into a formula: the first byte picks
// the declared count n in 1..12, every later nonzero byte b is the
// literal of variable 1 + (b>>1)%n negated by its low bit, and a zero
// byte ends a clause, so repeated literals, tautologies, empty clauses,
// duplicate clauses and declared variables that never occur all arise.
func fuzzFormula(data []byte) *cnf.Formula {
	if len(data) == 0 {
		return cnf.New(0)
	}
	n := 1 + int(data[0])%12
	f := cnf.New(n)
	var c cnf.Clause
	for _, b := range data[1:] {
		if b == 0 {
			f.Clauses = append(f.Clauses, c)
			c = nil
			continue
		}
		c = append(c, cnf.NewLit(cnf.Var(1+int(b>>1)%n), b&1 == 1))
	}
	if len(c) > 0 {
		f.Clauses = append(f.Clauses, c)
	}
	return f
}

// twinOf returns f under a random renaming onto a declared count up to
// two larger, with the literals of every clause shuffled, some
// literals repeated, and copies of earlier clauses inserted after the
// clauses they copy. The clause order is otherwise kept: Canonicalize
// deliberately does not normalize it.
func twinOf(g *rng.Xoshiro256, f *cnf.Formula) *cnf.Formula {
	out := cnf.New(f.NumVars + g.Intn(3))
	perm := g.Perm(out.NumVars)
	add := func(c cnf.Clause) {
		d := make(cnf.Clause, 0, len(c)+1)
		for _, l := range c {
			d = append(d, cnf.NewLit(cnf.Var(perm[l.Var()-1]+1), l.IsNeg()))
		}
		if len(d) > 0 && g.Intn(3) == 0 {
			d = append(d, d[g.Intn(len(d))])
		}
		g.Shuffle(len(d), func(a, b int) { d[a], d[b] = d[b], d[a] })
		out.Clauses = append(out.Clauses, d)
	}
	for i, c := range f.Clauses {
		add(c)
		if g.Intn(4) == 0 {
			add(f.Clauses[g.Intn(i+1)])
		}
	}
	return out
}

// bruteModel returns a model of f over its declared variables, or nil.
func bruteModel(f *cnf.Formula) cnf.Assignment {
	a := cnf.NewAssignment(f.NumVars)
	for bits := 0; bits < 1<<f.NumVars; bits++ {
		for v := 1; v <= f.NumVars; v++ {
			a[v] = cnf.False
			if bits>>(v-1)&1 == 1 {
				a[v] = cnf.True
			}
		}
		if a.Satisfies(f) {
			return a
		}
	}
	return nil
}

// FuzzCanonicalize checks what the verdict cache stands on. A renamed
// twin with shuffled literals and injected duplicate literals and
// clauses has the same fingerprint and canonical formula. The canonical
// formula is in normal form: literals strictly ascending in every
// clause, clauses strictly ascending, and variables 1..NumVars all
// occurring. A model of f carried through ToCanonical and the twin's
// FromCanonical satisfies the twin, and through f's own FromCanonical
// comes back with the values it had on the variables that occur.
func FuzzCanonicalize(f *testing.F) {
	f.Add([]byte{2, 2, 5, 0, 3, 0}, uint64(1))
	f.Add([]byte{3, 2, 2, 3, 0, 0, 4, 6, 0, 6, 4}, uint64(2))
	f.Add([]byte{5, 2, 4, 0, 3, 5, 0, 2, 5, 0, 3, 4, 0}, uint64(3))
	f.Add([]byte{11, 2, 4, 6, 0, 8, 10, 12, 0, 2, 8, 0, 0}, uint64(4))
	f.Add([]byte{}, uint64(5))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		form := fuzzFormula(data)
		twin := twinOf(rng.New(seed), form)
		c, ct := cnf.Canonicalize(form), cnf.Canonicalize(twin)
		if c.Fingerprint() != ct.Fingerprint() || c.F.NumVars != ct.F.NumVars ||
			!slices.EqualFunc(c.F.Clauses, ct.F.Clauses, slices.Equal) {
			t.Fatalf("twin canonicalizes differently:\nf    %s -> %s\ntwin %s -> %s", form, c.F, twin, ct.F)
		}

		occurs := make([]bool, c.F.NumVars+1)
		for i, cl := range c.F.Clauses {
			if i > 0 && slices.Compare(c.F.Clauses[i-1], cl) >= 0 {
				t.Fatalf("clauses %d and %d out of order in %s", i-1, i, c.F)
			}
			for k, l := range cl {
				if k > 0 && cl[k-1] >= l {
					t.Fatalf("clause %d not strictly ascending in %s", i, c.F)
				}
				occurs[l.Var()] = true
			}
		}
		if slices.Contains(occurs[1:], false) {
			t.Fatalf("canonical space %d holds a variable that never occurs: %s", c.F.NumVars, c.F)
		}

		model := bruteModel(form)
		if model == nil {
			return
		}
		if m := c.ToCanonical(model); !m.Satisfies(c.F) {
			t.Fatalf("model %s of %s translates to %s, which fails %s", model, form, m, c.F)
		}
		moved := ct.FromCanonical(c.ToCanonical(model))
		if len(moved) != twin.NumVars+1 || !moved.Satisfies(twin) {
			t.Fatalf("model %s of %s moves to %s, which fails the twin %s", model, form, moved, twin)
		}
		back := c.FromCanonical(c.ToCanonical(model))
		used := make([]bool, form.NumVars+1)
		for _, c := range form.Clauses {
			for _, l := range c {
				used[l.Var()] = true
			}
		}
		for v := 1; v <= form.NumVars; v++ {
			if want := model[v]; !used[v] && back[v] != cnf.Unassigned || used[v] && back[v] != want {
				t.Fatalf("x%d: %v -> %v through the round trip (occurs: %t)", v, model[v], back[v], used[v])
			}
		}
	})
}
