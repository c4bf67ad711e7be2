// Conformance suite for the counter-addressed stream contract: the
// sampling engines' results must be invariant to the worker count
// (workers claim disjoint sample-index chunks of the same streams).
package repro

import (
	"context"
	"testing"

	"repro/internal/hyperspace"
	"repro/internal/rng"
)

// TestWorkerCountNeverChangesResults pins the headline guarantee at
// the registry level: for every sampling engine, workers=1 and
// workers=8 produce bit-identical verdicts and statistics. rtw samples
// the paper instances on mc's parallel sampler; its wide kernel (the
// 59-bit instance) and sbl sample single-threaded, so the knob is a
// no-op there — asserting it anyway keeps them honest if they ever
// grow a parallel path.
func TestWorkerCountNeverChangesResults(t *testing.T) {
	for _, engine := range []string{"mc", "rtw", "sbl"} {
		t.Run(engine, func(t *testing.T) {
			instances := conformanceInstances(t)
			if engine == "rtw" {
				instances["ksat-5-9-3"] = RandomKSAT(1, 5, 9, 3)
			}
			for label, f := range instances {
				var ref Result
				for i, workers := range []int{1, 3, 8} {
					s, err := NewWith(engine, Config{Seed: 1, MaxSamples: 1_000_000, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					r, err := s.Solve(context.Background(), f)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", label, workers, err)
					}
					r.Wall = 0 // wall clock is the one legitimately varying field
					if i == 0 {
						ref = r
						continue
					}
					if r.Status != ref.Status || r.Stats != ref.Stats {
						t.Errorf("%s: result changed with workers=%d:\n got %+v\nwant %+v",
							label, workers, r, ref)
					}
				}
			}
		})
	}
}

// TestRTWIsMCOverTelegraphWaves pins the one sampler: on every
// conformance instance (all within the 53 bits float64 evaluates
// exactly) the rtw engine returns mc's Status and Stats with the rtw
// family, bit for bit, at every worker count, on the vector kernels.
func TestRTWIsMCOverTelegraphWaves(t *testing.T) {
	for label, f := range conformanceInstances(t) {
		for _, workers := range []int{1, 3, 8} {
			cfg := Config{Seed: 1, MaxSamples: 1_000_000, Workers: workers}
			r := registrySolve(t, "rtw", cfg, f)
			cfg.Family = "rtw"
			want := registrySolve(t, "mc", cfg, f)
			if r.Status != want.Status || r.Stats != want.Stats {
				t.Errorf("%s workers=%d: rtw %v %+v, mc -family rtw %v %+v",
					label, workers, r.Status, r.Stats, want.Status, want.Stats)
			}
			if r.Stats.FillAccel != rng.FillAccelName() || r.Stats.EvalAccel != hyperspace.EvalAccelName() {
				t.Errorf("%s: rtw ran on %q/%q kernels, want %q/%q", label,
					r.Stats.FillAccel, r.Stats.EvalAccel, rng.FillAccelName(), hyperspace.EvalAccelName())
			}
		}
	}
}

// TestAccelEchoedInStats pins the provenance echo: a plain mc solve on
// the default uniform family names the fill and evaluator kernels this
// build runs.
func TestAccelEchoedInStats(t *testing.T) {
	s, err := NewWith("mc", Config{Seed: 1, MaxSamples: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Solve(context.Background(), PaperSAT())
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.FillAccel != rng.FillAccelName() || r.Stats.EvalAccel != hyperspace.EvalAccelName() {
		t.Errorf("Stats accel = %q/%q, want %q/%q", r.Stats.FillAccel, r.Stats.EvalAccel,
			rng.FillAccelName(), hyperspace.EvalAccelName())
	}
}
