package hyperspace

import (
	"math"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/noise"
	"repro/internal/rng"
)

func TestExpandedMatchesFactored(t *testing.T) {
	g := rng.New(77)
	for trial := 0; trial < 20; trial++ {
		n := 1 + g.Intn(5)
		m := 1 + g.Intn(4)
		k := 1 + g.Intn(n)
		f := gen.RandomKSAT(g, n, m, k)
		seed := uint64(trial)
		factored := New(f, noise.NewBank(noise.UniformUnit, seed, n, m))
		expanded := NewExpanded(f, noise.NewBank(noise.UniformUnit, seed, n, m))
		for step := uint64(0); step < 30; step++ {
			a, b := factored.StepAt(step), expanded.StepAt(step)
			if math.Abs(a.S-b.S) > 1e-9*math.Max(1, math.Abs(a.S)) ||
				math.Abs(a.Tau-b.Tau) > 1e-9*math.Max(1, math.Abs(a.Tau)) {
				t.Fatalf("trial %d step %d: factored %+v vs expanded %+v", trial, step, a, b)
			}
		}
	}
}

func TestExpandedWithBindings(t *testing.T) {
	f := gen.PaperExample6()
	seed := uint64(5)
	factored := New(f, noise.NewBank(noise.RTW, seed, 2, 2))
	expanded := NewExpanded(f, noise.NewBank(noise.RTW, seed, 2, 2))
	bound := cnf.NewAssignment(2)
	bound.Set(1, cnf.True)
	factored.BindAll(bound)
	expanded.Bind(1, cnf.True)
	for step := uint64(0); step < 50; step++ {
		a, b := factored.StepAt(step), expanded.StepAt(step)
		if a.S != b.S {
			t.Fatalf("step %d: %v vs %v", step, a.S, b.S)
		}
	}
}

func TestExpandedPanics(t *testing.T) {
	f := gen.PaperExample6()
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch must panic")
		}
	}()
	NewExpanded(f, noise.NewBank(noise.RTW, 1, 3, 2))
}

// The superposition ablation: factored vs expanded throughput.
func BenchmarkFactoredN10(b *testing.B) { benchEval(b, 10, false) }
func BenchmarkExpandedN10(b *testing.B) { benchEval(b, 10, true) }
func BenchmarkFactoredN16(b *testing.B) { benchEval(b, 16, false) }
func BenchmarkExpandedN16(b *testing.B) { benchEval(b, 16, true) }

func benchEval(b *testing.B, n int, expand bool) {
	g := rng.New(1)
	f := gen.RandomKSAT(g, n, 2*n, 3)
	bank := noise.NewBank(noise.UniformUnit, 1, n, 2*n)
	var sink float64
	if expand {
		e := NewExpanded(f, bank)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink += e.StepAt(uint64(i)).S
		}
	} else {
		e := New(f, bank)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink += e.StepAt(uint64(i)).S
		}
	}
	_ = sink
}
