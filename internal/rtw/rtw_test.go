package rtw

import (
	"math"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/hyperspace"
	"repro/internal/noise"
)

func TestStepMatchesHyperspaceEvaluator(t *testing.T) {
	// With the same seed, the int64 engine must produce exactly the
	// float S_N samples of the generic evaluator over an RTW bank.
	for _, f := range []*cnf.Formula{
		gen.PaperExample6(), gen.PaperExample7(), gen.PaperSAT(), gen.PaperExample5(),
	} {
		e, err := New(f, 42)
		if err != nil {
			t.Fatal(err)
		}
		bank := noise.NewBank(noise.RTW, 42, f.NumVars, f.NumClauses())
		ev := hyperspace.New(f, bank)
		for step := uint64(0); step < 200; step++ {
			got := e.Step()
			want := ev.StepAt(step).S
			if float64(got) != want {
				t.Fatalf("%s step %d: int engine %d, float engine %v", f, step, got, want)
			}
		}
	}
}

func TestCheckDecisions(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    *cnf.Formula
		sat  bool
	}{
		{"Example6", gen.PaperExample6(), true},
		{"Example7", gen.PaperExample7(), false},
		{"S_SAT", gen.PaperSAT(), true},
		{"S_UNSAT", gen.PaperUNSAT(), false},
	} {
		e, err := New(tc.f, 7)
		if err != nil {
			t.Fatal(err)
		}
		r := e.Check(400_000, 4)
		if r.Satisfiable != tc.sat {
			t.Errorf("%s: got %v, want %v (%+v)", tc.name, r.Satisfiable, tc.sat, r)
		}
	}
}

func TestMeanConvergesToWeightedCount(t *testing.T) {
	// RTW sources have sigma^2 = 1, so mean(S_N) -> K' = 2 on Example 6.
	e, err := New(gen.PaperExample6(), 3)
	if err != nil {
		t.Fatal(err)
	}
	r := e.Check(400_000, 4)
	if math.Abs(r.Mean-2) > 0.2 {
		t.Errorf("mean = %v, want ~2", r.Mean)
	}
}

func TestBindingMirrorsAlgorithm2(t *testing.T) {
	e, err := New(gen.PaperExample6(), 5)
	if err != nil {
		t.Fatal(err)
	}
	e.Bind(1, cnf.True)
	if r := e.Check(300_000, 4); !r.Satisfiable {
		t.Errorf("x1 subspace should be SAT: %+v", r)
	}
	e.Bind(2, cnf.True)
	if r := e.Check(300_000, 4); r.Satisfiable {
		t.Errorf("x1·x2 subspace should be UNSAT: %+v", r)
	}
	e.BindAll(cnf.NewAssignment(2))
	if r := e.Check(300_000, 4); !r.Satisfiable {
		t.Errorf("unbound check should be SAT again: %+v", r)
	}
}

func TestSamplesAreIntegers(t *testing.T) {
	e, err := New(gen.PaperSAT(), 9)
	if err != nil {
		t.Fatal(err)
	}
	// All samples are integers by construction (int64 return); verify
	// they stay within the declared bound 2^n·prod(k_j·2^(n-1)).
	bound := int64(4) * 2 * 2 * 2 * 2 * 16 // loose: 2^2 · (2·2^1)^4
	for i := 0; i < 1000; i++ {
		s := e.Step()
		if s > bound || s < -bound {
			t.Fatalf("sample %d exceeds bound %d", s, bound)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(cnf.New(0), 1); err == nil {
		t.Error("zero variables accepted")
	}
	f := cnf.New(2)
	f.Clauses = append(f.Clauses, cnf.Clause{})
	if _, err := New(f, 1); err == nil {
		t.Error("empty clause accepted")
	}
	// Overflow guard: a formula with huge n·m no longer fails — it
	// selects the exact wide kernel instead of the int64 one.
	big := cnf.New(64)
	for j := 0; j < 64; j++ {
		big.Add(j%64+1, -(((j + 1) % 64) + 1))
	}
	e, err := New(big, 1)
	if err != nil {
		t.Errorf("overflow-prone instance must take the wide fallback, got %v", err)
	} else if !e.Wide() {
		t.Error("overflow-prone instance should be on the wide kernel")
	}
}

func TestZeroVarianceUnsatStaysUnsat(t *testing.T) {
	// Tiny sample budgets can produce all-zero samples on UNSAT
	// instances; the decision must remain UNSAT.
	e, err := New(gen.PaperExample7(), 11)
	if err != nil {
		t.Fatal(err)
	}
	r := e.Check(16, 4)
	if r.Satisfiable {
		t.Errorf("sparse UNSAT run misclassified: %+v", r)
	}
}

func BenchmarkRTWStep(b *testing.B) {
	e, err := New(gen.PaperSAT(), 1)
	if err != nil {
		b.Fatal(err)
	}
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += e.Step()
	}
	_ = sink
}
