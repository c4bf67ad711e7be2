package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestWelfordAgainstDirect(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	w.AddN(xs)
	if w.Count() != int64(len(xs)) {
		t.Fatalf("count = %d, want %d", w.Count(), len(xs))
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v, want 5", w.Mean())
	}
	// Unbiased variance of this classic dataset is 32/7.
	if !almostEqual(w.Variance(), 32.0/7, 1e-12) {
		t.Errorf("variance = %v, want %v", w.Variance(), 32.0/7)
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 {
		t.Error("empty accumulator should report zero mean/variance")
	}
	if !math.IsInf(w.StdErr(), 1) {
		t.Error("empty accumulator StdErr should be +Inf")
	}
	w.Add(3.5)
	if w.Mean() != 3.5 || w.Variance() != 0 {
		t.Error("single observation: mean 3.5, variance 0")
	}
}

func TestWelfordNumericalStability(t *testing.T) {
	// Large offset with small spread: the naive sum-of-squares formula
	// loses all precision here; Welford must not.
	var w Welford
	const offset = 1e9
	for _, x := range []float64{offset + 4, offset + 7, offset + 13, offset + 16} {
		w.Add(x)
	}
	if !almostEqual(w.Mean(), offset+10, 1e-3) {
		t.Errorf("mean = %v, want %v", w.Mean(), offset+10)
	}
	if !almostEqual(w.Variance(), 30, 1e-6) {
		t.Errorf("variance = %v, want 30", w.Variance())
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	g := rng.New(5)
	xs := make([]float64, 1001)
	for i := range xs {
		xs[i] = 6*g.Float64() - 2
	}
	var whole Welford
	whole.AddN(xs)

	var a, b Welford
	a.AddN(xs[:317])
	b.AddN(xs[317:])
	a.Merge(b)

	if a.Count() != whole.Count() {
		t.Fatalf("merged count = %d, want %d", a.Count(), whole.Count())
	}
	if !almostEqual(a.Mean(), whole.Mean(), 1e-10) {
		t.Errorf("merged mean = %v, want %v", a.Mean(), whole.Mean())
	}
	if !almostEqual(a.Variance(), whole.Variance(), 1e-8) {
		t.Errorf("merged variance = %v, want %v", a.Variance(), whole.Variance())
	}
}

func TestWelfordMergeEdgeCases(t *testing.T) {
	var empty, full Welford
	full.AddN([]float64{1, 2, 3})
	snapshot := full

	full.Merge(empty) // merging empty is a no-op
	if full != snapshot {
		t.Error("merging an empty accumulator changed state")
	}
	empty.Merge(full) // merging into empty copies
	if empty != full {
		t.Error("merging into empty should copy the other accumulator")
	}
}

func TestWelfordMergePropertyQuick(t *testing.T) {
	f := func(seed uint64, splitRaw uint8) bool {
		g := rng.New(seed)
		n := 64 + int(splitRaw%64)
		split := 1 + int(splitRaw)%(n-1)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 2*g.Float64() - 1
		}
		var whole, a, b Welford
		whole.AddN(xs)
		a.AddN(xs[:split])
		b.AddN(xs[split:])
		a.Merge(b)
		return almostEqual(a.Mean(), whole.Mean(), 1e-9) &&
			almostEqual(a.Variance(), whole.Variance(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRoundSig(t *testing.T) {
	cases := []struct {
		x    float64
		d    int
		want float64
	}{
		{123456, 3, 123000},
		{0.00123456, 3, 0.00123},
		{-98765, 2, -99000},
		{0, 3, 0},
		{9.99, 2, 10},
		{1.0 / 12, 3, 0.0833},
	}
	for _, c := range cases {
		if got := RoundSig(c.x, c.d); !almostEqual(got, c.want, math.Abs(c.want)*1e-12) {
			t.Errorf("RoundSig(%v,%d) = %v, want %v", c.x, c.d, got, c.want)
		}
	}
}

func TestConvergenceStopsOnStableMean(t *testing.T) {
	c := &Convergence{MaxSamples: 1 << 40}
	means := []float64{1.0, 1.1, 1.11, 1.112, 1.1118, 1.1121, 1.1119, 1.1122}
	stopped := -1
	for i, m := range means {
		if c.Check(m) {
			stopped = i
			break
		}
	}
	// From 1.11 on (index 2), every value rounds to 1.11 at 3 significant
	// digits, so stability counts 1,2,3,4 at indices 3,4,5,6: a window of
	// 4 stops at index 6.
	if stopped != 6 {
		t.Errorf("stopped at check %d, want 6", stopped)
	}
}

func TestConvergenceBudgetSeparateFromStability(t *testing.T) {
	c := &Convergence{MaxSamples: 100}
	if c.Exhausted(99) {
		t.Error("budget not exhausted at 99 of 100")
	}
	if !c.Exhausted(100) {
		t.Error("budget exhausted at 100 of 100")
	}
	// Stability is reported independently of the budget: an unstable mean
	// never reads as converged, no matter how many samples were consumed.
	if c.Check(1.0) {
		t.Error("single check cannot report stability")
	}
	if c.Check(2.0) {
		t.Error("unstable mean past the budget must not read as converged")
	}
	unbudgeted := &Convergence{}
	if unbudgeted.Exhausted(1 << 50) {
		t.Error("MaxSamples = 0 means no budget")
	}
}

func TestSliceHelpers(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if !almostEqual(Mean(xs), 2.5, 1e-15) {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if !almostEqual(Variance(xs), 5.0/3, 1e-15) {
		t.Errorf("Variance = %v", Variance(xs))
	}
	if !almostEqual(StdDev(xs), math.Sqrt(5.0/3), 1e-15) {
		t.Errorf("StdDev = %v", StdDev(xs))
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if Variance([]float64{1}) != 0 {
		t.Error("Variance of one element should be 0")
	}
}

func BenchmarkWelfordAdd(b *testing.B) {
	var w Welford
	for i := 0; i < b.N; i++ {
		w.Add(float64(i & 1023))
	}
}
