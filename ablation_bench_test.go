// Ablation benchmarks for the design choices documented in DESIGN.md:
// superposition vs. enumeration (the paper's central claim), the
// float64 underflow wall of the paper's U[-0.5,0.5] sources, parallel
// sampling scaling, and the single-wire hyperspace codec.
package repro

import (
	"math"
	"testing"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hyperspace"
	"repro/internal/logic"
	"repro/internal/nblgates"
	"repro/internal/noise"
	"repro/internal/rng"
	"repro/internal/wire"
)

// BenchmarkAblation_SuperpositionVsEnumeration quantifies what the NBL
// superposition buys: one factored O(n·m) sample versus the O(2^n·n·m)
// explicit enumeration a conventional evaluator needs. The reported
// metric is the speedup factor at n=14.
func BenchmarkAblation_SuperpositionVsEnumeration(b *testing.B) {
	const n, m = 14, 28
	g := rng.New(1)
	f := gen.RandomKSAT(g, n, m, 3)

	factored := hyperspace.New(f, noise.NewBank(noise.UniformUnit, 1, n, m))
	expanded := hyperspace.NewExpanded(f, noise.NewBank(noise.UniformUnit, 1, n, m))

	var tFac, tExp float64
	b.Run("factored", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += factored.StepAt(uint64(i)).S
		}
		_ = sink
		tFac = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("enumerated", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += expanded.StepAt(uint64(i)).S
		}
		_ = sink
		tExp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	if tFac > 0 {
		b.ReportMetric(tExp/tFac, "speedup-n14")
	}
}

// BenchmarkAblation_UnderflowWall demonstrates the float64 failure mode
// of the paper's U[-0.5,0.5] family: E[S_N] = K'·(1/12)^(nm) underflows
// to zero for n·m >= 300, while unit-variance sources hold E[S_N] = K'
// at any size. The metric reports the first underflowing n·m.
func BenchmarkAblation_UnderflowWall(b *testing.B) {
	wall := 0
	for i := 0; i < b.N; i++ {
		wall = 0
		for nm := 1; nm < 1000; nm++ {
			if math.Pow(noise.UniformHalf.Sigma2(), float64(nm)) == 0 {
				wall = nm
				break
			}
		}
	}
	b.ReportMetric(float64(wall), "underflow-nm")
	// Sanity: unit variance never underflows.
	if math.Pow(noise.UniformUnit.Sigma2(), 1e6) != 1 {
		b.Fatal("unit-variance family should be underflow-free")
	}
}

// BenchmarkAblation_Workers measures parallel sampling scaling of the
// Monte-Carlo engine on a mid-size instance.
func BenchmarkAblation_Workers1(b *testing.B) { benchWorkers(b, 1) }

// BenchmarkAblation_Workers4 is the 4-worker variant.
func BenchmarkAblation_Workers4(b *testing.B) { benchWorkers(b, 4) }

func benchWorkers(b *testing.B, workers int) {
	g := rng.New(3)
	f := gen.RandomKSAT(g, 8, 16, 3)
	for i := 0; i < b.N; i++ {
		eng, err := core.NewEngine(f, core.Options{
			Family: noise.UniformUnit, Seed: uint64(i + 1),
			MaxSamples: 400_000, MinSamples: 400_000, CheckEvery: 100_000,
			Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		eng.Check()
	}
}

// BenchmarkAblation_WireMembership measures the single-wire hyperspace
// codec: one membership query (signal x reference correlation) on an
// 8-variable wire carrying a 16-minterm superposition.
func BenchmarkAblation_WireMembership(b *testing.B) {
	w, err := wire.New(8, noise.RTW, 1)
	if err != nil {
		b.Fatal(err)
	}
	set := make([]uint64, 16)
	for i := range set {
		set[i] = uint64(i * 13 % 256)
	}
	hits := 0
	for i := 0; i < b.N; i++ {
		m, err := w.Contains(set, set[i%len(set)], 20_000, 4)
		if err != nil {
			b.Fatal(err)
		}
		if m.Present {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "member-detection-rate")
}

// BenchmarkAblation_NoiseGates measures the ref-[13] gate realization:
// one full half-adder evaluation on noise carriers (6 correlation
// read-outs), reporting the weakest logic-1 margin at the default
// window.
func BenchmarkAblation_NoiseGates(b *testing.B) {
	c := logic.New()
	x := c.NewInput("a")
	y := c.NewInput("b")
	c.MarkOutput(c.Xor(x, y))
	c.MarkOutput(c.And(x, y))
	minZ := math.Inf(1)
	for i := 0; i < b.N; i++ {
		_, st, err := nblgates.Evaluate(c, []bool{true, true}, nblgates.Options{
			Family: noise.UniformUnit, Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if st.MinOneZ < minZ {
			minZ = st.MinOneZ
		}
	}
	b.ReportMetric(minZ, "weakest-1-margin-z")
}

// BenchmarkAblation_CheckCostBySize sweeps the per-check cost over
// instance size at a fixed sample budget, showing the O(n·m) per-sample
// scaling of the factored evaluator (the budget needed for a *reliable*
// decision still grows exponentially; see E3).
func BenchmarkAblation_CheckCostBySize(b *testing.B) {
	for _, nm := range []struct{ n, m int }{{4, 8}, {8, 16}, {16, 32}, {32, 64}} {
		b.Run(sizeName(nm.n, nm.m), func(b *testing.B) {
			g := rng.New(7)
			f := gen.RandomKSAT(g, nm.n, nm.m, 3)
			bank := noise.NewBank(noise.UniformUnit, 1, nm.n, nm.m)
			ev := hyperspace.New(f, bank)
			var sink float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += ev.StepAt(uint64(i)).S
			}
			_ = sink
		})
	}
}

func sizeName(n, m int) string {
	return "n" + itoa(n) + "m" + itoa(m)
}

func itoa(x int) string {
	if x == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for x > 0 {
		i--
		buf[i] = byte('0' + x%10)
		x /= 10
	}
	return string(buf[i:])
}

// TestAblationUnderflowWallValue pins the documented wall: (1/12)^nm
// leaves the normal float64 range at nm = 285 and underflows fully to
// zero at nm = 300.
func TestAblationUnderflowWallValue(t *testing.T) {
	if v := math.Pow(1.0/12, 284); v == 0 || v >= math.SmallestNonzeroFloat64*1e300 {
		// still representable (subnormal territory starts right after)
		_ = v
	}
	if v := math.Pow(1.0/12, 299); v == 0 {
		t.Error("(1/12)^299 should still be a subnormal, not zero")
	}
	if v := math.Pow(1.0/12, 300); v != 0 {
		t.Errorf("(1/12)^300 = %v, expected underflow to 0", v)
	}
}

// TestWorkerCountDoesNotChangeDecision: the parallel sampler must reach
// the same verdict for any worker count on a decisive instance.
func TestWorkerCountDoesNotChangeDecision(t *testing.T) {
	f := gen.PaperExample6()
	for _, workers := range []int{1, 2, 3, 8} {
		eng, err := core.NewEngine(f, core.Options{
			Family: noise.UniformUnit, Seed: 9,
			MaxSamples: 400_000, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r := eng.Check(); !r.Satisfiable {
			t.Errorf("workers=%d: misclassified: %v", workers, r)
		}
	}
	unbound := cnf.NewAssignment(f.NumVars)
	if core.WeightedCount(f, unbound).Int64() != 2 {
		t.Error("K' of Example 6 must be 2")
	}
}
