package solver

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cnf"
	"repro/internal/obs"
)

// TestConfigKeyGolden pins the literal cache/store identity of default
// configs. The durable verdict store persists these strings across
// releases, so any drift orphans every stored verdict: a change here
// must be a deliberate, reviewed golden update.
func TestConfigKeyGolden(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{}, "1|4000000|4|0|unit||0|0|0|0|false|[]"},
		{Config{Seed: 7, Task: TaskCount}, "7|4000000|4|0|unit||0|0|0|0|false|[]|count"},
	} {
		if got := tc.cfg.Key(); got != tc.want {
			t.Errorf("%+v.Key() = %q, want %q", tc.cfg, got, tc.want)
		}
	}
}

// TestStatsAddAdoptsAccel pins the merge semantics meta-engines rely
// on: a fresh Stats adopts a component's kernel names, an already-set
// one keeps its own.
func TestStatsAddAdoptsAccel(t *testing.T) {
	var s Stats
	s.Add(Stats{Samples: 10, FillAccel: "avx2", EvalAccel: "avx2"})
	if s.FillAccel != "avx2" || s.EvalAccel != "avx2" {
		t.Errorf("merged accel = %q/%q, want avx2/avx2 (adopted)", s.FillAccel, s.EvalAccel)
	}
	s.Add(Stats{Samples: 5, FillAccel: "none", EvalAccel: "none"})
	if s.FillAccel != "avx2" || s.EvalAccel != "avx2" {
		t.Errorf("merged accel = %q/%q, want avx2/avx2 (kept)", s.FillAccel, s.EvalAccel)
	}
	if s.Samples != 15 {
		t.Errorf("Samples = %d, want 15", s.Samples)
	}
}

// fakeEngine is a warm engine that rejects formulas with no clauses
// and remembers what it was last built or re-targeted at.
type fakeEngine struct {
	f    *cnf.Formula
	seed uint64
}

func (e *fakeEngine) Reset(f *cnf.Formula, seed uint64) error {
	if f.NumClauses() == 0 {
		return errors.New("no clauses")
	}
	e.f, e.seed = f, seed
	return nil
}

// TestWarmReportsGeometry pins the adapter's Reusable report and its
// re-target. Reset reports cold until a Solve has built the engine and
// warm from then on, whatever formula comes next. Every Solve runs the
// engine on its own formula under the seed the last Reset recorded
// (the registry default 1 for a zero seed), and only the first builds.
// A rejected formula fails its Solve and leaves the engine built.
func TestWarmReportsGeometry(t *testing.T) {
	builds := 0
	var ran *fakeEngine // the engine state the last check ran on
	w := NewWarm("fake", 3,
		func(f *cnf.Formula, seed uint64) (*fakeEngine, error) {
			builds++
			return &fakeEngine{f: f, seed: seed}, nil
		},
		func(ctx context.Context, e *fakeEngine, f *cnf.Formula, sp *obs.Span) (Result, error) {
			snapshot := *e
			ran = &snapshot
			return Result{Status: StatusSat}, nil
		})
	a := cnf.FromClauses([]int{1, 2}, []int{-1})
	b := cnf.FromClauses([]int{1, 2, 3}) // another geometry
	for i, step := range []struct {
		reset    *Config // nil: no Reset before the Solve
		wantWarm bool
		f        *cnf.Formula // nil: a formula the engine rejects
		wantSeed uint64
	}{
		{&Config{Seed: 4}, false, a, 4}, // unbuilt: cold, then built
		{&Config{Seed: 5}, true, a, 5},  // same formula, new seed
		{&Config{}, true, b, 1},         // new geometry, default seed
		{nil, false, a, 1},              // a direct Solve keeps the seed
		{&Config{Seed: 9}, true, nil, 0},
		{&Config{Seed: 7}, true, a, 7}, // still built after a rejection
	} {
		if step.reset != nil {
			if got := w.Reset(*step.reset); got != step.wantWarm {
				t.Errorf("step %d: Reset reported warm=%v, want %v", i, got, step.wantWarm)
			}
		}
		if step.f == nil {
			if _, err := w.Solve(context.Background(), cnf.New(3)); err == nil {
				t.Errorf("step %d: a formula the engine rejects solved", i)
			}
			continue
		}
		ran = nil
		if _, err := w.Solve(context.Background(), step.f); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if ran == nil || ran.f != step.f || ran.seed != step.wantSeed || builds != 1 {
			t.Errorf("step %d: check ran on %+v after %d builds, want formula %v, seed %d, one build",
				i, ran, builds, step.f, step.wantSeed)
		}
	}
}
