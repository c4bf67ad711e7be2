package core

import (
	"math"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/rng"
)

// TestBlockSizeNeverChangesVerdicts pins the conformance contract of
// the sampling batch size: FillBlockAt reads each source's stream
// exactly as repeated scalar fills would, so any block size draws the
// same samples and must produce the same verdict (the running mean can
// drift by float merge-order ulps, never by enough to matter).
func TestBlockSizeNeverChangesVerdicts(t *testing.T) {
	instances := map[string]*cnf.Formula{
		"PaperSAT":   gen.PaperSAT(),
		"PaperUNSAT": gen.PaperUNSAT(),
		"PaperEx6":   gen.PaperExample6(),
		"uf8-dense":  gen.RandomKSAT(rng.New(5), 8, 30, 3),
	}
	planted, _ := gen.PlantedKSAT(rng.New(9), 8, 30, 3)
	instances["planted8-30"] = planted
	for label, f := range instances {
		var ref Result
		for i, block := range []int{16, 64, 100, 256} {
			eng, err := NewEngine(f, Options{Seed: 7, MaxSamples: 60_000, Block: block})
			if err != nil {
				t.Fatalf("%s block=%d: %v", label, block, err)
			}
			r := eng.Check()
			if i == 0 {
				ref = r
				continue
			}
			if r.Satisfiable != ref.Satisfiable {
				t.Errorf("%s: verdict changed with block size %d: %v vs %v",
					label, block, r.Satisfiable, ref.Satisfiable)
			}
			if r.Samples != ref.Samples {
				t.Errorf("%s: consumed samples changed with block size %d: %d vs %d",
					label, block, r.Samples, ref.Samples)
			}
			// Same streams, so the means may differ only by merge-order
			// rounding.
			if relDiff(r.Mean, ref.Mean) > 1e-9 {
				t.Errorf("%s: mean drifted with block size %d: %g vs %g",
					label, block, r.Mean, ref.Mean)
			}
		}
	}
}

func relDiff(a, b float64) float64 {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return 0
	}
	return math.Abs(a-b) / scale
}
