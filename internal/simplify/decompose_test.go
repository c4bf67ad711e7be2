package simplify

import (
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/rng"
)

// shift returns f with every variable offset by delta, for building
// variable-disjoint unions.
func shift(f *cnf.Formula, delta int) *cnf.Formula {
	g := cnf.New(f.NumVars + delta)
	for _, c := range f.Clauses {
		d := make(cnf.Clause, len(c))
		for i, l := range c {
			d[i] = cnf.NewLit(l.Var()+cnf.Var(delta), l.IsNeg())
		}
		g.Clauses = append(g.Clauses, d)
	}
	return g
}

// union conjoins variable-disjoint formulas (the caller shifts).
func union(fs ...*cnf.Formula) *cnf.Formula {
	out := cnf.New(0)
	for _, f := range fs {
		if f.NumVars > out.NumVars {
			out.NumVars = f.NumVars
		}
		out.Clauses = append(out.Clauses, f.Clauses...)
	}
	return out
}

func TestDecomposeDisjointUnion(t *testing.T) {
	a := gen.PaperExample6()           // vars 1..2
	b := shift(gen.PaperExample6(), 2) // vars 3..4
	c := shift(gen.PaperSAT(), 4)      // vars 5..6
	f := union(a, b, c)

	comps := Decompose(f)
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3: %v", len(comps), comps)
	}
	totalNM := 0
	for i, comp := range comps {
		if err := comp.F.Validate(); err != nil {
			t.Fatalf("component %d invalid: %v", i, err)
		}
		if comp.F.NumVars != 2 {
			t.Errorf("component %d has %d vars, want 2", i, comp.F.NumVars)
		}
		totalNM += comp.F.NumVars * comp.F.NumClauses()
	}
	if parent := f.NumVars * f.NumClauses(); totalNM >= parent {
		t.Errorf("decomposition did not shrink n·m: sum %d vs parent %d", totalNM, parent)
	}
	// Deterministic ordering by smallest parent variable.
	if comps[0].VarMap[0] != 1 || comps[1].VarMap[0] != 3 || comps[2].VarMap[0] != 5 {
		t.Errorf("components out of order: %v %v %v",
			comps[0].VarMap, comps[1].VarMap, comps[2].VarMap)
	}
}

func TestDecomposeConnectedIsSingleComponent(t *testing.T) {
	f := gen.RandomKSAT(rng.New(7), 10, 42, 3)
	comps := Decompose(f)
	// Random 3-SAT at this density is connected with overwhelming
	// probability; the invariant that matters is that the clauses
	// partition exactly.
	total := 0
	for _, c := range comps {
		total += c.F.NumClauses()
	}
	if total != f.NumClauses() {
		t.Fatalf("clauses not partitioned: %d vs %d", total, f.NumClauses())
	}
	if len(comps) != 1 {
		t.Logf("instance decomposed into %d components (unusual but legal)", len(comps))
	}
}

func TestDecomposeLiftRoundTrip(t *testing.T) {
	// Solve each component by brute force, lift the models, and check
	// the combined assignment satisfies the parent.
	g := rng.New(11)
	for trial := 0; trial < 20; trial++ {
		parts := make([]*cnf.Formula, 0, 3)
		offset := 0
		for i := 0; i < 3; i++ {
			p := gen.RandomKSAT(g, 4, 6, 2)
			parts = append(parts, shift(p, offset))
			offset += 4
		}
		f := union(parts...)
		comps := Decompose(f)

		full := cnf.NewAssignment(f.NumVars)
		sat := true
		for _, comp := range comps {
			model, ok := bruteModel(comp.F)
			if !ok {
				sat = false
				break
			}
			comp.Lift(model, full)
		}
		if !sat {
			continue // whole formula UNSAT; nothing to lift
		}
		for v := cnf.Var(1); int(v) <= f.NumVars; v++ {
			if full.Get(v) == cnf.Unassigned {
				full.Set(v, cnf.False)
			}
		}
		if !full.Satisfies(f) {
			t.Fatalf("trial %d: lifted model does not satisfy parent", trial)
		}
	}
}

func TestDecomposeEmptyClause(t *testing.T) {
	f := cnf.FromClauses([]int{1, 2}, []int{})
	comps := Decompose(f)
	foundEmpty := false
	for _, c := range comps {
		for _, cl := range c.F.Clauses {
			if len(cl) == 0 {
				foundEmpty = true
			}
		}
	}
	if !foundEmpty {
		t.Fatal("empty clause lost in decomposition")
	}
}

// bruteModel enumerates assignments for tiny formulas.
func bruteModel(f *cnf.Formula) (cnf.Assignment, bool) {
	n := f.NumVars
	for bits := uint64(0); bits < 1<<n; bits++ {
		a := cnf.NewAssignment(n)
		for v := 1; v <= n; v++ {
			if bits&(1<<(v-1)) != 0 {
				a.Set(cnf.Var(v), cnf.True)
			} else {
				a.Set(cnf.Var(v), cnf.False)
			}
		}
		if a.Satisfies(f) {
			return a, true
		}
	}
	return nil, false
}

func TestBVEEquisatisfiableAndReconstructs(t *testing.T) {
	g := rng.New(23)
	for trial := 0; trial < 40; trial++ {
		f := gen.RandomKSAT(g, 6, 14, 3)
		wasSat := bruteCount(f) > 0

		r := Simplify(f, Options{})
		if r.ProvedUnsat {
			if wasSat {
				t.Fatalf("trial %d: preprocessing UNSAT-proved a satisfiable formula", trial)
			}
			continue
		}
		model, sat := bruteModel(r.F)
		if sat != wasSat {
			t.Fatalf("trial %d: satisfiability changed %v -> %v (stats %s)",
				trial, wasSat, sat, r.Stats)
		}
		if !sat {
			continue
		}
		lifted := r.Reconstruct(model)
		if !lifted.Satisfies(f) {
			t.Fatalf("trial %d: reconstructed model does not satisfy the original (stats %s, elims %d)",
				trial, r.Stats, len(r.Eliminations))
		}
	}
}

func TestBVEEliminatesOnPaperEx5(t *testing.T) {
	// A chain (x1+x2)·(!x2+x3) has x2 occurring once per polarity:
	// always eliminable with a single resolvent (x1+x3).
	f := cnf.FromClauses([]int{1, 2}, []int{-2, 3})
	r := Simplify(f, Options{DisableUnits: true, DisablePure: true,
		DisableSubsumption: true, DisableStrengthen: true})
	if r.ProvedUnsat {
		t.Fatal("unexpected UNSAT")
	}
	if r.Stats.VarsEliminated == 0 {
		t.Fatalf("expected at least one elimination, stats %s", r.Stats)
	}
	model, ok := bruteModel(r.F)
	if !ok {
		t.Fatal("reduced formula unexpectedly UNSAT")
	}
	lifted := r.Reconstruct(model)
	if !lifted.Satisfies(f) {
		t.Fatalf("reconstructed model %v does not satisfy %v", lifted, f)
	}
}
