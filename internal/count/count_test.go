package count

import (
	"math/big"
	"runtime"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/rng"
)

func TestBrutePaperInstances(t *testing.T) {
	cases := []struct {
		name string
		f    *cnf.Formula
		want uint64
	}{
		{"S_UNSAT", gen.PaperUNSAT(), 0},
		{"S_SAT", gen.PaperSAT(), 1},
		{"Example5", gen.PaperExample5(), 1},
		{"Example6", gen.PaperExample6(), 2},
		{"Example7", gen.PaperExample7(), 0},
	}
	for _, c := range cases {
		if got := Brute(c.f); got != c.want {
			t.Errorf("%s: Brute = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestCountMatchesBruteOnRandomInstances(t *testing.T) {
	g := rng.New(101)
	for trial := 0; trial < 60; trial++ {
		n := 2 + g.Intn(9) // 2..10
		m := 1 + g.Intn(4*n)
		k := 1 + g.Intn(min(3, n))
		f := gen.RandomKSAT(g, n, m, k)
		brute := new(big.Int).SetUint64(Brute(f))
		dpll := Count(f)
		if brute.Cmp(dpll) != 0 {
			t.Fatalf("trial %d (n=%d m=%d k=%d): Brute=%s DPLL=%s\n%s",
				trial, n, m, k, brute, dpll, f)
		}
	}
}

func TestCountEmptyFormula(t *testing.T) {
	// No clauses: every assignment of the n variables satisfies it.
	f := cnf.New(5)
	if got := Count(f); got.Cmp(big.NewInt(32)) != 0 {
		t.Errorf("Count(empty over 5 vars) = %s, want 32", got)
	}
}

func TestCountEmptyClause(t *testing.T) {
	f := cnf.New(3)
	f.Clauses = append(f.Clauses, cnf.Clause{})
	if got := Count(f); got.Sign() != 0 {
		t.Errorf("Count with empty clause = %s, want 0", got)
	}
}

func TestCountFreeVariables(t *testing.T) {
	// x1 constrained true, x2..x4 unmentioned: 1 * 2^3 models.
	f := cnf.New(4)
	f.Add(1)
	if got := Count(f); got.Cmp(big.NewInt(8)) != 0 {
		t.Errorf("Count = %s, want 8", got)
	}
}

func TestCountTautologyOnly(t *testing.T) {
	f := cnf.New(2)
	f.Add(1, -1)
	if got := Count(f); got.Cmp(big.NewInt(4)) != 0 {
		t.Errorf("Count = %s, want 4", got)
	}
}

func TestCountComponentDecomposition(t *testing.T) {
	// Two independent XOR-ish components: (x1+x2)(!x1+!x2) has 2 models,
	// (x3+x4)(!x3+!x4) has 2 models; product 4, plus free x5 doubles it.
	f := cnf.New(5)
	f.Add(1, 2)
	f.Add(-1, -2)
	f.Add(3, 4)
	f.Add(-3, -4)
	if got := Count(f); got.Cmp(big.NewInt(8)) != 0 {
		t.Errorf("Count = %s, want 8", got)
	}
}

func TestCountPigeonhole(t *testing.T) {
	for holes := 1; holes <= 4; holes++ {
		if got := Count(gen.Pigeonhole(holes)); got.Sign() != 0 {
			t.Errorf("PHP(%d): Count = %s, want 0", holes, got)
		}
	}
}

func TestCountExactlyK(t *testing.T) {
	for _, k := range []uint64{0, 1, 5, 16, 31, 32} {
		f := gen.ExactlyK(5, k)
		if got := Count(f); got.Cmp(new(big.Int).SetUint64(k)) != 0 {
			t.Errorf("ExactlyK(5,%d): Count = %s", k, got)
		}
	}
}

func TestWeightedBrutePaperExamples(t *testing.T) {
	// Example 6: S=(x1+x2)(!x1+!x2). Models: 10 and 01. Under 10 the
	// first clause has 1 true literal (x1), the second 1 (!x2): weight 1.
	// Same for 01. K' = 2.
	if got := WeightedBrute(gen.PaperExample6()); got.Cmp(big.NewInt(2)) != 0 {
		t.Errorf("Example6 K' = %s, want 2", got)
	}
	// S_SAT: unique model 11. Clause weights: (x1+x2):2, (x1+!x2):1,
	// (!x1+x2):1, (x1+x2):2 → K' = 4.
	if got := WeightedBrute(gen.PaperSAT()); got.Cmp(big.NewInt(4)) != 0 {
		t.Errorf("S_SAT K' = %s, want 4", got)
	}
	if got := WeightedBrute(gen.PaperUNSAT()); got.Sign() != 0 {
		t.Errorf("S_UNSAT K' = %s, want 0", got)
	}
}

func TestWeightedAtLeastPlain(t *testing.T) {
	g := rng.New(55)
	for trial := 0; trial < 30; trial++ {
		f := gen.RandomKSAT(g, 6, 10, 3)
		plain := new(big.Int).SetUint64(Brute(f))
		weighted := WeightedBrute(f)
		if weighted.Cmp(plain) < 0 {
			t.Fatalf("K' < K on trial %d: %s < %s", trial, weighted, plain)
		}
	}
}

func TestBrutePanicsOnLargeN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n > 28")
		}
	}()
	Brute(cnf.New(29))
}

func TestCountLargerPlantedInstance(t *testing.T) {
	// 40 variables is far beyond Brute; DPLL must still finish and find
	// at least the planted model.
	g := rng.New(7)
	f, _ := gen.PlantedKSAT(g, 40, 120, 3)
	if got := Count(f); got.Sign() <= 0 {
		t.Errorf("planted instance counted %s models, want > 0", got)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestCountsFollowClausesNotDeclaredVars(t *testing.T) {
	// A header may declare far more variables than the clauses use. The
	// renaming and the decomposition follow the literals; only the
	// result, 2^free times the component counts, grows with the header:
	// 50,000,000 bits is 6 MiB.
	f := cnf.FromClauses([]int{1, -7}, []int{7, 49_999_999}, []int{-3, 5})
	f.NumVars = 50_000_000
	// The first two clauses have 4 models of weight 6 in all, the third
	// 3 models of weight 4, and 49,999,995 variables are free.
	free := uint(f.NumVars - 5)
	models := new(big.Int).Lsh(big.NewInt(4*3), free)
	weighted := new(big.Int).Lsh(big.NewInt(6*4), free)
	for _, c := range []struct {
		name  string
		count func(*cnf.Formula) *big.Int
		want  *big.Int
	}{{"Count", Count, models}, {"Weighted", Weighted, weighted}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := c.count(f)
		runtime.ReadMemStats(&after)
		if got.Cmp(c.want) != 0 {
			t.Errorf("%s: wrong count (%d bits, want %d)", c.name, got.BitLen(), c.want.BitLen())
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
			t.Errorf("%s allocated %d MiB for %d declared variables, want < 16", c.name, alloc>>20, f.NumVars)
		}
	}
}
