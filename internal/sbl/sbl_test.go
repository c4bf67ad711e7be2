package sbl

import (
	"context"
	"math"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/solver"
)

func TestGeometricExactOnExample7(t *testing.T) {
	// n=1, m=2 -> 4 carriers, period 2·4^4 = 512: full-period exact
	// read-out. UNSAT: DC must be ~0 to float precision.
	e, err := New(gen.PaperExample7(), Options{Alloc: Geometric4})
	if err != nil {
		t.Fatal(err)
	}
	if e.Period() != 512 {
		t.Errorf("period = %d, want 512", e.Period())
	}
	r := e.Check()
	if !r.FullPeriod {
		t.Fatal("expected full-period observation")
	}
	if r.Satisfiable {
		t.Errorf("Example 7 decided SAT: %+v", r)
	}
	if math.Abs(r.Mean) > 1e-6 {
		t.Errorf("UNSAT DC = %v, want ~0 exactly", r.Mean)
	}
}

func TestGeometricExactOnExample6(t *testing.T) {
	// n=2, m=2 -> 8 carriers, period 2·4^8 = 131072. K' = 2: the DC
	// read-out should equal 2 to float precision.
	e, err := New(gen.PaperExample6(), Options{Alloc: Geometric4})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Check()
	if !r.FullPeriod || !r.Satisfiable {
		t.Fatalf("unexpected result: %+v", r)
	}
	if math.Abs(r.Mean-2) > 1e-5 {
		t.Errorf("DC = %v, want exactly 2 (K' of Example 6)", r.Mean)
	}
}

func TestGeometricWindowedStillDecidesTinyInstance(t *testing.T) {
	// Cap the window below the period: leakage appears but the decision
	// on a K'=2 instance should survive a half-period window.
	e, err := New(gen.PaperExample6(), Options{Alloc: Geometric4, MaxSamples: 65536})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Check()
	if r.FullPeriod {
		t.Fatal("window should be truncated")
	}
	if !r.Satisfiable {
		t.Errorf("windowed decision failed: %+v", r)
	}
}

// TestRegistrySkipsTruncatedWindow: through the registry, a carrier
// period the sample budget cannot cover is UNKNOWN before any sample is
// drawn, since a truncated window is never read as a verdict; a period
// that fits is still observed whole and decided.
func TestRegistrySkipsTruncatedWindow(t *testing.T) {
	s, err := solver.NewWith("sbl", solver.Config{MaxSamples: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	x1 := cnf.New(8) // (x1) over 8 variables: period 2·4^16
	x1.Add(1)
	r, err := s.Solve(context.Background(), x1)
	if err != nil || r.Status != solver.StatusUnknown || r.Stats.Samples != 0 {
		t.Errorf("(x1) over 8 variables: %v, %+v; want UNKNOWN with no samples", err, r)
	}
	r, err = s.Solve(context.Background(), gen.PaperExample7())
	if err != nil || r.Status != solver.StatusUnsat || r.Stats.Samples != 512 {
		t.Errorf("Example 7: %v, %+v; want UNSAT over its 512-sample period", err, r)
	}
}

func TestLinearAllocationCompactButInexact(t *testing.T) {
	// E7's tradeoff: the linear plan uses 2nm bandwidth (vs 4^(2nm-1))
	// but its collisions corrupt the DC. On Example 7 (UNSAT) the
	// geometric plan reads ~0; record that linear deviates or not —
	// the test asserts only the bandwidth claim and that the engine
	// runs, since collision effects are instance-specific.
	if bw := Bandwidth(1, 2, Linear); bw != 4 {
		t.Errorf("linear bandwidth = %v, want 4", bw)
	}
	if bw := Bandwidth(1, 2, Geometric4); bw != math.Pow(4, 3) {
		t.Errorf("geometric bandwidth = %v, want 64", bw)
	}
	e, err := New(gen.PaperExample7(), Options{Alloc: Linear})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Check()
	if !r.FullPeriod {
		t.Fatal("linear plan's short period should fit the default budget")
	}
	t.Logf("linear allocation on Example 7: DC = %v (geometric gives 0)", r.Mean)
}

func TestLinearCollisionProducesSpuriousDC(t *testing.T) {
	// Make the defect concrete: on at least one of the paper instances
	// the linear plan's full-period DC deviates from the exact K' by
	// more than float rounding, demonstrating the collision problem.
	deviation := 0.0
	for _, tc := range []struct {
		f  *cnf.Formula
		kp float64
	}{
		{gen.PaperExample7(), 0},
		{gen.PaperExample6(), 2},
		{gen.PaperSAT(), 4},
		{gen.PaperUNSAT(), 0},
	} {
		e, err := New(tc.f, Options{Alloc: Linear, MaxSamples: 1 << 22})
		if err != nil {
			t.Fatal(err)
		}
		r := e.Check()
		if r.FullPeriod {
			if d := math.Abs(r.Mean - tc.kp); d > deviation {
				deviation = d
			}
		}
	}
	if deviation < 1e-3 {
		t.Errorf("expected a measurable spurious DC from linear collisions, max deviation %v", deviation)
	}
}

func TestResetRewinds(t *testing.T) {
	e, err := New(gen.PaperExample7(), Options{Alloc: Geometric4})
	if err != nil {
		t.Fatal(err)
	}
	a := e.Check()
	if err := e.Reset(gen.PaperExample7(), 1); err != nil {
		t.Fatal(err)
	}
	b := e.Check()
	if a.Mean != b.Mean {
		t.Errorf("Reset did not reproduce the run: %v vs %v", a.Mean, b.Mean)
	}
	// Re-target across a geometry change: the engine must rebuild and
	// behave exactly like a fresh construction.
	if err := e.Reset(gen.PaperSAT(), 1); err != nil {
		t.Fatal(err)
	}
	warm := e.Check()
	fresh, err := New(gen.PaperSAT(), Options{Alloc: Geometric4})
	if err != nil {
		t.Fatal(err)
	}
	if cold := fresh.Check(); warm != cold {
		t.Errorf("geometry-change Reset diverged from fresh: %+v vs %+v", warm, cold)
	}
	// A rebuild that violates the allocator's bandwidth must fail and
	// leave the engine usable for a later (valid) Reset.
	if err := e.Reset(gen.Pigeonhole(3), 1); err == nil {
		t.Error("oversized geometric allocation accepted by Reset")
	}
	if err := e.Reset(gen.PaperSAT(), 1); err != nil {
		t.Fatal(err)
	}
	if again := e.Check(); again != warm {
		t.Errorf("engine unusable after rejected Reset: %+v vs %+v", again, warm)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(cnf.New(0), Options{}); err == nil {
		t.Error("zero-variable formula accepted")
	}
	// 2nm too large for the geometric allocator.
	big := gen.Pigeonhole(3) // n=12, m=22 -> 2nm = 528
	if _, err := New(big, Options{Alloc: Geometric4}); err == nil {
		t.Error("oversized geometric allocation accepted")
	}
	if _, err := New(gen.PaperExample6(), Options{Alloc: Allocation(9)}); err == nil {
		t.Error("unknown allocation accepted")
	}
}

func TestAllocationString(t *testing.T) {
	if Geometric4.String() != "geometric4" || Linear.String() != "linear" {
		t.Error("allocation names broken")
	}
	if Allocation(7).String() == "" {
		t.Error("unknown allocation should still render")
	}
}

func TestBandwidthUnknownAllocation(t *testing.T) {
	if !math.IsNaN(Bandwidth(1, 1, Allocation(9))) {
		t.Error("unknown allocation bandwidth should be NaN")
	}
}
