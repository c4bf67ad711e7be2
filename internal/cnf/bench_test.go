package cnf_test

import (
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/rng"
)

// BenchmarkCanonicalize and BenchmarkFormulaSimplify time the front
// door's per-request work on a planted 50-variable, 210-clause 3-SAT
// formula, the size of the fleet's requests.
func BenchmarkCanonicalize(b *testing.B) {
	f, _ := gen.PlantedKSAT(rng.New(1), 50, 210, 3)
	b.ReportAllocs()
	for b.Loop() {
		cnf.Canonicalize(f)
	}
}

func BenchmarkFormulaSimplify(b *testing.B) {
	f, _ := gen.PlantedKSAT(rng.New(1), 50, 210, 3)
	b.ReportAllocs()
	for b.Loop() {
		f.Simplify()
	}
}
