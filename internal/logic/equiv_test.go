package logic

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/cnf"
	"repro/internal/dpll"
	"repro/internal/rng"
)

// equivalent decides the miter with DPLL: UNSAT certifies equivalence.
func equivalent(t *testing.T, a, b *cnf.Formula) bool {
	t.Helper()
	m, err := EquivalenceCNF(a, b)
	if err != nil {
		t.Fatal(err)
	}
	_, sat := dpll.Solve(m)
	return !sat
}

func TestEquivalenceCNF(t *testing.T) {
	a := cnf.FromClauses([]int{1, 2}, []int{-1, 2})
	// b is a renamed-literal-order presentation of the same function
	// (both say "2 must hold whenever 1 does not, and also when it does"
	// — i.e. x2 is forced).
	b := cnf.FromClauses([]int{2, -1}, []int{2, 1})
	if !equivalent(t, a, a) {
		t.Error("a is not equivalent to itself")
	}
	if !equivalent(t, a, b) {
		t.Error("reordered presentation judged inequivalent")
	}
	// c differs from a on the assignment x1=true, x2=false.
	c := cnf.FromClauses([]int{1, 2})
	if equivalent(t, a, c) {
		t.Error("distinct functions judged equivalent")
	}
	// Mismatched variable counts are a usage error, not a verdict.
	if _, err := EquivalenceCNF(a, cnf.New(3)); err == nil ||
		!strings.Contains(err.Error(), "matching variable counts") {
		t.Errorf("variable-count mismatch not rejected: %v", err)
	}
}

// TestEquivalenceCNFInputVariables pins the layout contract: variables
// 1..n of the miter CNF are the shared original inputs, so a model of
// the miter reads back directly as a distinguishing assignment.
func TestEquivalenceCNFInputVariables(t *testing.T) {
	a := cnf.FromClauses([]int{1, 2})
	b := cnf.FromClauses([]int{1}, []int{2})
	m, err := EquivalenceCNF(a, b)
	if err != nil {
		t.Fatal(err)
	}
	model, sat := dpll.Solve(m)
	if !sat {
		t.Fatal("a and b differ yet the miter is UNSAT")
	}
	// Read the first two variables as the distinguishing input pair and
	// check the two formulas really disagree there.
	bits := uint64(0)
	for v := 1; v <= 2; v++ {
		if model.Get(cnf.Var(v)) == cnf.True {
			bits |= 1 << (v - 1)
		}
	}
	asn := cnf.AssignmentFromBits(bits, 2)
	if asn.Satisfies(a) == asn.Satisfies(b) {
		t.Errorf("miter model %v is not a distinguishing assignment", asn)
	}
}

// TestEquivalenceCNFRefuses pins the errors that stand in for a panic
// or an overflowed literal: a literal outside its formula's declared
// variables, a negative count, and a miter needing a variable past
// cnf.MaxVar.
func TestEquivalenceCNFRefuses(t *testing.T) {
	outside := &cnf.Formula{NumVars: 2, Clauses: []cnf.Clause{{cnf.Pos(5)}}}
	for _, tc := range []struct {
		name string
		a, b *cnf.Formula
		want string
	}{
		{"literal past the header", outside, cnf.FromClauses([]int{1}, []int{-2}), "formula 1"},
		{"literal past the header, second", cnf.FromClauses([]int{1, 2}), outside, "formula 2"},
		{"negative count", cnf.New(-1), cnf.New(-1), "negative variable count"},
		{"count past cnf.MaxVar", cnf.New(cnf.MaxVar + 1), cnf.New(cnf.MaxVar + 1), "cnf.MaxVar"},
		{"miter past cnf.MaxVar", &cnf.Formula{NumVars: cnf.MaxVar - 2, Clauses: []cnf.Clause{{cnf.Pos(1)}}},
			cnf.New(cnf.MaxVar - 2), "cnf.MaxVar"},
	} {
		if m, err := EquivalenceCNF(tc.a, tc.b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v (miter %v), want an error naming %q", tc.name, err, m != nil, tc.want)
		}
	}
	// One variable less fits: the pair's n, its one clause and two
	// outputs end exactly at cnf.MaxVar.
	m, err := EquivalenceCNF(&cnf.Formula{NumVars: cnf.MaxVar - 3, Clauses: []cnf.Clause{{cnf.Pos(1)}}},
		cnf.New(cnf.MaxVar-3))
	if err != nil || m.NumVars != cnf.MaxVar || m.Validate() != nil {
		t.Errorf("a miter ending at cnf.MaxVar: %v", err)
	}
}

// checkMiter holds EquivalenceCNF to brute force on a pair over at most
// a few variables: the miter is valid, has n + one variable per clause
// + two outputs, is satisfiable exactly when some assignment separates
// the pair, and a DPLL model read on variables 1..n separates them.
func checkMiter(t *testing.T, a, b *cnf.Formula) {
	t.Helper()
	m, err := EquivalenceCNF(a, b)
	if err != nil {
		t.Fatalf("%v vs %v: %v", a, b, err)
	}
	n := a.NumVars
	if err := m.Validate(); err != nil || m.NumVars != n+len(a.Clauses)+len(b.Clauses)+2 {
		t.Fatalf("%v vs %v: miter over %d variables, Validate: %v", a, b, m.NumVars, err)
	}
	separable := false
	for bits := uint64(0); bits < 1<<n && !separable; bits++ {
		asn := cnf.AssignmentFromBits(bits, n)
		separable = asn.Satisfies(a) != asn.Satisfies(b)
	}
	model, sat := dpll.Solve(m)
	if sat != separable {
		t.Fatalf("%v vs %v: miter SAT = %v, brute force separable = %v", a, b, sat, separable)
	}
	if !sat {
		return
	}
	inputs := cnf.NewAssignment(n)
	copy(inputs, model[:n+1])
	if inputs.Satisfies(a) == inputs.Satisfies(b) {
		t.Fatalf("%v vs %v: miter model %v does not separate the pair", a, b, inputs)
	}
}

// TestEquivalenceCNFMatchesBruteForce runs checkMiter on seeded random
// pairs of at most 4 variables and 5 clauses, and makes sure the draw
// covered each degenerate shape: a formula with no clauses, an empty
// clause, a duplicate literal and a tautology.
func TestEquivalenceCNFMatchesBruteForce(t *testing.T) {
	g := rng.New(29)
	formula := func(n int) *cnf.Formula {
		f := cnf.New(n)
		for range g.Intn(6) {
			cl := cnf.Clause{}
			if n > 0 {
				for range g.Intn(5) {
					cl = append(cl, cnf.NewLit(cnf.Var(1+g.Intn(n)), g.Bool()))
				}
			}
			f.Clauses = append(f.Clauses, cl)
		}
		return f
	}
	var noClauses, empty, duplicate, tautology int
	for range 3000 {
		n := g.Intn(5)
		a, b := formula(n), formula(n)
		if g.Intn(8) == 0 {
			b = a // an equivalent pair in every few
		}
		for _, f := range []*cnf.Formula{a, b} {
			if len(f.Clauses) == 0 {
				noClauses++
			}
			for _, cl := range f.Clauses {
				if len(cl) == 0 {
					empty++
				}
				if cl.IsTautology() {
					tautology++
				}
				for i := range cl {
					if cl[i+1:].Contains(cl[i]) {
						duplicate++
						break
					}
				}
			}
		}
		checkMiter(t, a, b)
	}
	if noClauses == 0 || empty == 0 || duplicate == 0 || tautology == 0 {
		t.Errorf("draw missed a shape: %d without clauses, %d empty clauses, %d with a duplicate literal, %d tautologies",
			noClauses, empty, duplicate, tautology)
	}
}

// FuzzEquivalenceCNF runs checkMiter on arbitrary pairs over n ≤ 5
// variables. Each byte x of a formula's bytes is the literal
// ±(x/2 mod (n+1)), negative when x is odd; a 0 closes the clause so
// far, empty or not, and trailing literals close one last clause. Six
// clauses of eight literals per formula are kept at most.
func FuzzEquivalenceCNF(f *testing.F) {
	f.Add(uint8(2), []byte{2, 4, 0}, []byte{2, 0, 4, 0})
	f.Add(uint8(2), []byte{2, 5, 0, 3, 4, 0}, []byte{4, 0})
	f.Add(uint8(1), []byte{2, 3, 0}, []byte{})
	f.Add(uint8(3), []byte{0}, []byte{2, 2, 0, 6})
	f.Add(uint8(0), []byte{}, []byte{0})
	f.Fuzz(func(t *testing.T, n uint8, a, b []byte) {
		vars := int(n % 6)
		formula := func(data []byte) *cnf.Formula {
			g := cnf.New(vars)
			var cl cnf.Clause
			for i, x := range data {
				v := int(x/2) % (vars + 1)
				if v != 0 && len(cl) < 8 {
					cl = append(cl, cnf.NewLit(cnf.Var(v), x%2 == 1))
				}
				if v == 0 || i == len(data)-1 {
					g.Clauses = append(g.Clauses, cl)
					cl = nil
				}
				if len(g.Clauses) == 6 {
					break
				}
			}
			return g
		}
		checkMiter(t, formula(a), formula(b))
	})
}

// TestEquivalenceCNFCostFollowsTheLiterals pins that the miter costs
// what the pair's clauses hold, not what its headers declare: a pair of
// two-clause formulas declaring 131,072 variables lowers in under 1 MiB.
func TestEquivalenceCNFCostFollowsTheLiterals(t *testing.T) {
	const n = 1 << 17
	a := &cnf.Formula{NumVars: n, Clauses: []cnf.Clause{{cnf.Pos(1), cnf.Neg(n)}, {cnf.Pos(2)}}}
	b := &cnf.Formula{NumVars: n, Clauses: []cnf.Clause{{cnf.Neg(n), cnf.Pos(1)}, {cnf.Pos(2)}}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := EquivalenceCNF(a, b)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("lowering a %d-variable pair allocated %d bytes, want under 1 MiB", n, alloc)
	}
	if m.NumVars != n+6 || len(m.Clauses) != 2*(2*2+3+1)+2 {
		t.Errorf("miter has %d variables and %d clauses, want %d and %d", m.NumVars, len(m.Clauses), n+6, 2*(2*2+3+1)+2)
	}
}
