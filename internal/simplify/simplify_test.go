package simplify

import (
	"math/big"
	"runtime"
	"testing"

	"repro/internal/cdcl"
	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/rng"
)

// bruteCount returns the number of models of f by enumerating all
// 2^NumVars assignments. The package's tests cannot use count.Brute:
// count imports simplify.
func bruteCount(f *cnf.Formula) uint64 {
	var models uint64
	for bits := uint64(0); bits < 1<<f.NumVars; bits++ {
		if cnf.AssignmentFromBits(bits, f.NumVars).Satisfies(f) {
			models++
		}
	}
	return models
}

func TestUnitPropagationChain(t *testing.T) {
	// (x1)(!x1+x2)(!x2+x3): everything is forced; no clauses remain.
	f := cnf.FromClauses([]int{1}, []int{-1, 2}, []int{-2, 3})
	r := Simplify(f, Options{})
	if r.ProvedUnsat {
		t.Fatal("satisfiable chain proved unsat")
	}
	if r.F.NumClauses() != 0 {
		t.Errorf("clauses remain: %v", r.F)
	}
	for v := 1; v <= 3; v++ {
		if r.Forced.Get(cnf.Var(v)) != cnf.True {
			t.Errorf("x%d should be forced true", v)
		}
	}
	model := r.Reconstruct(cnf.NewAssignment(0))
	if !model.Satisfies(f) {
		t.Errorf("reconstructed model %s does not satisfy", model)
	}
}

// implicationChain returns the chain (x1)(!x1+x2)...(!x(n-1)+xn) with
// its variables renamed and its literals and clauses shuffled.
func implicationChain(g *rng.Xoshiro256, n int) *cnf.Formula {
	f := cnf.FromClauses([]int{1})
	for v := 2; v <= n; v++ {
		f.Add(-(v - 1), v)
	}
	return scrambled(g, f)
}

func TestUnitPropagationLongChain(t *testing.T) {
	// Every unit forces the next: propagation must follow occurrence
	// lists, not rescan and rebuild the clause list once per unit.
	const n = 10_000
	f := implicationChain(rng.New(41), n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := Simplify(f, Options{})
	runtime.ReadMemStats(&after)
	if r.ProvedUnsat || r.F.NumClauses() != 0 {
		t.Fatalf("unsat=%v, %d clauses left", r.ProvedUnsat, r.F.NumClauses())
	}
	for v := 1; v <= n; v++ {
		if r.Forced.Get(cnf.Var(v)) != cnf.True {
			t.Fatalf("x%d not forced true", v)
		}
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<20 {
		t.Errorf("allocated %d MiB, want < 64", alloc>>20)
	}
}

func TestScratchFollowsClausesNotDeclaredVars(t *testing.T) {
	// A DIMACS header may declare far more variables than the clauses
	// use. Forced holds one byte per declared variable; everything else
	// the passes allocate must follow the clauses.
	f := gen.Pigeonhole(3)
	f.NumVars = 2_000_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := Simplify(f, Options{})
	runtime.ReadMemStats(&after)
	if !r.ProvedUnsat {
		t.Fatal("PHP(4,3) not proved UNSAT")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 4<<20 {
		t.Errorf("allocated %d KiB for %d declared variables, want < 4 MiB", alloc>>10, f.NumVars)
	}
}

func TestUnitConflictProvesUnsat(t *testing.T) {
	f := cnf.FromClauses([]int{1}, []int{-1})
	if r := Simplify(f, Options{}); !r.ProvedUnsat {
		t.Error("contradictory units not detected")
	}
	// Longer derivation: (x1)(!x1+x2)(!x2)
	g := cnf.FromClauses([]int{1}, []int{-1, 2}, []int{-2})
	if r := Simplify(g, Options{}); !r.ProvedUnsat {
		t.Error("unit-derivable contradiction not detected")
	}
}

func TestPureLiteralElimination(t *testing.T) {
	// x1 occurs only positively; both clauses vanish.
	f := cnf.FromClauses([]int{1, 2}, []int{1, -2})
	r := Simplify(f, Options{DisableUnits: true, DisableSubsumption: true, DisableStrengthen: true})
	if r.F.NumClauses() != 0 {
		t.Errorf("pure literal did not clear clauses: %v", r.F)
	}
	if r.Forced.Get(1) != cnf.True {
		t.Error("pure x1 should be forced true")
	}
	if r.Stats.PureLiterals == 0 {
		t.Error("stats not counted")
	}
}

func TestSubsumption(t *testing.T) {
	// (x1+x2) subsumes (x1+x2+x3); and a duplicate clause is removed.
	f := cnf.FromClauses([]int{1, 2}, []int{1, 2, 3}, []int{1, 2})
	// Disable pure-literal (everything here is pure) to isolate the pass.
	r := Simplify(f, Options{DisableUnits: true, DisablePure: true, DisableStrengthen: true})
	if r.F.NumClauses() != 1 {
		t.Errorf("subsumption left %d clauses: %v", r.F.NumClauses(), r.F)
	}
	if r.Stats.ClausesSubsumed != 2 {
		t.Errorf("subsumed = %d, want 2", r.Stats.ClausesSubsumed)
	}
}

func TestSelfSubsumingResolution(t *testing.T) {
	// C = (x1+x2), D = (!x1+x2+x3): resolving on x1 gives (x2+x3) ⊂ D,
	// so D strengthens to (x2+x3).
	f := cnf.FromClauses([]int{1, 2}, []int{-1, 2, 3})
	r := Simplify(f, Options{DisableUnits: true, DisablePure: true, DisableSubsumption: true})
	if r.Stats.LiteralsStrength == 0 {
		t.Fatal("no strengthening happened")
	}
	found := false
	for _, c := range r.F.Clauses {
		if len(c) == 2 {
			found = true
		}
		if len(c) == 3 {
			t.Errorf("clause %v not strengthened", c)
		}
	}
	if !found {
		t.Errorf("strengthened clause missing: %v", r.F)
	}
}

func TestStrengthenToEmptyProvesUnsat(t *testing.T) {
	// (x1) and (!x1) with units disabled: strengthening resolves the
	// lone literal away, deriving the empty clause.
	f := cnf.FromClauses([]int{1}, []int{-1})
	r := Simplify(f, Options{DisableUnits: true, DisablePure: true, DisableSubsumption: true})
	if !r.ProvedUnsat {
		t.Errorf("empty-clause derivation missed: %+v", r.F)
	}
}

func TestTautologyRemoval(t *testing.T) {
	f := cnf.FromClauses([]int{1, -1, 2}, []int{2, 3})
	r := Simplify(f, Options{DisableUnits: true, DisablePure: true,
		DisableSubsumption: true, DisableStrengthen: true})
	if r.F.NumClauses() != 1 {
		t.Errorf("tautology not dropped: %v", r.F)
	}
}

func TestEquisatisfiabilityRandomSweep(t *testing.T) {
	g := rng.New(33)
	for trial := 0; trial < 80; trial++ {
		n := 2 + g.Intn(7)
		m := 1 + g.Intn(4*n)
		k := 1 + g.Intn(min(3, n))
		f := gen.RandomKSAT(g, n, m, k)
		want := bruteCount(f) > 0

		r := Simplify(f, Options{})
		var got bool
		var model cnf.Assignment
		if r.ProvedUnsat {
			got = false
		} else if r.F.NumClauses() == 0 {
			got = true
			model = r.Reconstruct(cnf.NewAssignment(r.F.NumVars))
		} else {
			m2, ok := cdcl.Solve(r.F)
			got = ok
			if ok {
				model = r.Reconstruct(m2)
			}
		}
		if got != want {
			t.Fatalf("trial %d: simplified verdict %v, oracle %v\noriginal: %s",
				trial, got, want, f)
		}
		if got && !model.Satisfies(f) {
			t.Fatalf("trial %d: reconstructed model %s does not satisfy %s",
				trial, model, f)
		}
	}
}

func TestReductionNeverGrowsNM(t *testing.T) {
	g := rng.New(35)
	for trial := 0; trial < 30; trial++ {
		f := gen.RandomKSAT(g, 6, 20, 3)
		r := Simplify(f, Options{})
		if r.ProvedUnsat {
			continue
		}
		if r.Stats.NMAfter() > r.Stats.NMBefore() {
			t.Fatalf("trial %d: preprocessing grew n·m: %s", trial, r.Stats)
		}
	}
}

func TestSubsumptionPreservesModelCount(t *testing.T) {
	// Subsumption (unlike pure-literal elimination) preserves the exact
	// model set, not just satisfiability.
	g := rng.New(37)
	for trial := 0; trial < 25; trial++ {
		f := gen.RandomKSAT(g, 5, 12, 2)
		r := Simplify(f, Options{DisableUnits: true, DisablePure: true, DisableStrengthen: true, DisableBVE: true})
		if r.ProvedUnsat {
			// Only possible via empty clause in input; not generated here.
			t.Fatal("unexpected unsat proof")
		}
		// Lift the simplified formula back over the original variables.
		lifted := cnf.New(f.NumVars)
		for _, c := range r.F.Clauses {
			d := make(cnf.Clause, len(c))
			for i, l := range c {
				d[i] = cnf.NewLit(r.VarMap[int(l.Var())-1], l.IsNeg())
			}
			lifted.Clauses = append(lifted.Clauses, d)
		}
		a := new(big.Int).SetUint64(bruteCount(f))
		b := new(big.Int).SetUint64(bruteCount(lifted))
		if a.Cmp(b) != 0 {
			t.Fatalf("trial %d: model count changed %s -> %s", trial, a, b)
		}
	}
}

func TestStatsString(t *testing.T) {
	f := cnf.FromClauses([]int{1}, []int{1, 2})
	r := Simplify(f, Options{})
	if r.Stats.String() == "" {
		t.Error("empty stats string")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// BenchmarkSimplify sizes the preprocessing layer on the shapes the
// service sees: unions of planted blocks (the cold decide jobs), one
// planted 50/210 formula (the fleet's cold jobs), and a long
// implication chain (one unit after another).
func BenchmarkSimplify(b *testing.B) {
	g := rng.New(7)
	planted, _ := gen.PlantedKSAT(g, 50, 210, 3)
	for _, bc := range []struct {
		name string
		f    *cnf.Formula
	}{
		{"blocks-3x30-120", servingShape(g, 3)},
		{"blocks-6x30-120", servingShape(g, 6)},
		{"planted-50-210", planted},
		{"chain-10000", implicationChain(g, 10_000)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Simplify(bc.f, Options{})
			}
		})
	}
}
