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

// fakeEngine is a warm engine that rejects formulas with no clauses.
type fakeEngine struct{}

func (*fakeEngine) Reset(f *cnf.Formula) error {
	if f.NumClauses() == 0 {
		return errors.New("no clauses")
	}
	return nil
}

// TestWarmReportsGeometry pins the adapter's Reusable report: cold
// before the first build, warm on a repeated (n, m), cold on a geometry
// change, and cold (engine dropped, rebuilt by the next Solve) after a
// rejected formula.
func TestWarmReportsGeometry(t *testing.T) {
	builds := 0
	w := NewWarm("fake",
		func(f *cnf.Formula) (*fakeEngine, error) {
			builds++
			return &fakeEngine{}, nil
		},
		func(ctx context.Context, e *fakeEngine, f *cnf.Formula, sp *obs.Span) (Result, error) {
			return Result{Status: StatusSat}, nil
		})
	a := cnf.FromClauses([]int{1, 2}, []int{-1})
	b := cnf.FromClauses([]int{-1, -2}, []int{2})
	c := cnf.FromClauses([]int{1, 2, 3})
	if w.Reset(a) {
		t.Error("Reset before any Solve reported warm")
	}
	if _, err := w.Solve(context.Background(), a); err != nil || builds != 1 {
		t.Fatalf("first Solve: err %v, builds %d", err, builds)
	}
	if !w.Reset(b) {
		t.Error("same-geometry Reset reported cold")
	}
	if w.Reset(c) {
		t.Error("geometry-change Reset reported warm")
	}
	if w.Reset(cnf.New(3)) {
		t.Error("rejected Reset reported warm")
	}
	if _, err := w.Solve(context.Background(), a); err != nil || builds != 2 {
		t.Fatalf("Solve after a rejected Reset: err %v, builds %d (want a rebuild)", err, builds)
	}
}
