package core

import (
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/noise"
	"repro/internal/rng"
)

// TestWorkersNeverChangeResults pins the headline property of the
// chunk-claimed sampler: the worker count is pure parallelism. Every
// statistic — not just the verdict — must be bit-identical from
// workers=1 to workers=N, because the sample-index axis is partitioned
// into worker-independent chunks merged in chunk order.
func TestWorkersNeverChangeResults(t *testing.T) {
	instances := map[string]*cnf.Formula{
		"PaperSAT":   gen.PaperSAT(),
		"PaperUNSAT": gen.PaperUNSAT(),
		"uf8-dense":  gen.RandomKSAT(rng.New(5), 8, 30, 3),
	}
	for label, f := range instances {
		for _, fam := range []noise.Family{noise.UniformHalf, noise.Gaussian, noise.RTW} {
			var ref Result
			for i, workers := range []int{1, 3, 8} {
				eng, err := NewEngine(f, Options{
					Family: fam, Seed: 7, MaxSamples: 60_000, Workers: workers,
				})
				if err != nil {
					t.Fatalf("%s %v workers=%d: %v", label, fam, workers, err)
				}
				r := eng.Check()
				if i == 0 {
					ref = r
					continue
				}
				if r != ref {
					t.Errorf("%s %v: result changed with workers=%d:\n got %+v\nwant %+v",
						label, fam, workers, r, ref)
				}
			}
		}
	}
}
