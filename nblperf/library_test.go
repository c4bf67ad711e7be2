package main

import (
	"context"
	"testing"
	"time"

	"repro/internal/hyperspace"
	"repro/internal/noise"
	"repro/internal/solver"
)

func TestAlgorithm2InconsistencyIsUndecided(t *testing.T) {
	// Job 16 of paper-assign seed 8 is an Example 5 job on which
	// Algorithm 2's reduced checks contradict each other.
	j := paperAssign.inputs(8, 0)(16)
	s, err := paperAssign.open(context.Background(), "", 8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.solve(context.Background(), j, nil)
	if err != nil || r.res.Status != solver.StatusUnknown {
		t.Fatalf("solve = %v, %v; want UNKNOWN and no error", r.res.Status, err)
	}
	if err := check(j, r.res); err != nil {
		t.Errorf("check = %v; an Example 5 job may stay undecided", err)
	}
}

func TestTimedSourceIsTransparent(t *testing.T) {
	f := sampleUF20.inputs(2, 0)(0).f
	n, m := f.NumVars, f.NumClauses()
	plain := hyperspace.New(f, noise.NewBank(noise.UniformUnit, 9, n, m))
	src := &timedSource{Bank: noise.NewBank(noise.UniformUnit, 9, n, m)}
	timed := hyperspace.New(f, src)
	a, b := make([]float64, 48), make([]float64, 48)
	plain.StepBlockAt(1000, a)
	timed.StepBlockAt(1000, b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d: %v through the timed source, %v through the bank", i, b[i], a[i])
		}
	}
	if src.fill <= 0 {
		t.Error("the timed source recorded no fill time")
	}

	tl := newTally()
	probeKernel(f, 9, 1000, tl)
	if tl.sum("probe.samples") < 1000 || tl.sum("probe.fill_ns") > tl.sum("probe.block_ns") {
		t.Errorf("probe: %v samples, fill %v ns of block %v ns",
			tl.sum("probe.samples"), tl.sum("probe.fill_ns"), tl.sum("probe.block_ns"))
	}
}

func TestStealShare(t *testing.T) {
	a := ticks{busy: 100, steal: 10}
	if s := (ticks{busy: 130, steal: 20}).sub(a).stealShare(); s != 0.25 {
		t.Errorf("share = %v, want 0.25 (10 stolen of 40 demanded)", s)
	}
	if s := a.sub(a).stealShare(); s != 0 {
		t.Errorf("share over no time = %v, want 0", s)
	}
	if s := (ticks{steal: 1}).stealShare(); s != 1 {
		t.Errorf("share of one stolen tick alone = %v, want 1", s)
	}
}

func TestUnstolen(t *testing.T) {
	const window = 0.2
	for _, tc := range []struct {
		name string
		job  ticks
		want float64
	}{
		// A short job whose only tick was stolen reads as all stolen;
		// it gets the window's share instead of a latency of 0.
		{"one stolen tick, none busy", ticks{steal: 1}, 80},
		{"short, one busy and one stolen tick", ticks{busy: 1, steal: 1}, 80},
		{"short, no steal", ticks{busy: 3}, 100},
		{"no tick at all", ticks{}, 100},
		{"long enough for its own share", ticks{busy: 30, steal: 10}, 75},
		{"long, no steal", ticks{busy: 40}, 100},
	} {
		if got := unstolen(100, tc.job, window); got != tc.want {
			t.Errorf("%s: unstolen(100) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestHostTicksAdvance(t *testing.T) {
	a := hostTicks()
	if a == (ticks{}) {
		t.Skip("no /proc/stat")
	}
	deadline := time.Now().Add(60 * time.Millisecond)
	for x := 1.0; time.Now().Before(deadline); x = x*1.0000001 + 1 {
	}
	if d := hostTicks().sub(a); d.busy+d.steal == 0 {
		t.Errorf("60 ms of spinning moved no tick: %+v then %+v (the held-open file must be re-read)", a, hostTicks())
	}
}
