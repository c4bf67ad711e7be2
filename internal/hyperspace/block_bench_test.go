package hyperspace

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/noise"
	"repro/internal/rng"
)

// The sampler benchmarks pit the scalar kernel (StepAt) against the block
// kernel (StepBlockAt) on a SATLIB-scale uniform random 3-SAT instance
// (n=20, m=91, the uf20-91 geometry) and on the paper's own n=2, m=4
// example. Run with
//
//	go test ./internal/hyperspace -bench=BenchmarkSampler -benchmem
//
// and compare the samples/sec metrics; the block kernel's amortized
// dispatch and SoA inner loops are the measured speedup claimed in
// DESIGN.md.

func benchFormula(b *testing.B, n, m int) *Evaluator {
	b.Helper()
	var ev *Evaluator
	if n == 2 {
		f := gen.PaperSAT()
		ev = New(f, noise.NewBank(noise.UniformUnit, 1, f.NumVars, f.NumClauses()))
	} else {
		f := gen.RandomKSAT(rng.New(1), n, m, 3)
		ev = New(f, noise.NewBank(noise.UniformUnit, 1, n, m))
	}
	return ev
}

func benchScalar(b *testing.B, n, m int) {
	ev := benchFormula(b, n, m)
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += ev.StepAt(uint64(i)).S
	}
	_ = sink
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
}

func benchBlock(b *testing.B, n, m int) {
	ev := benchFormula(b, n, m)
	buf := make([]float64, 256)
	var sink float64
	b.ResetTimer()
	for done := 0; done < b.N; {
		k := len(buf)
		if rem := b.N - done; rem < k {
			k = rem
		}
		ev.StepBlockAt(uint64(done), buf[:k])
		sink += buf[0]
		done += k
	}
	_ = sink
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
}

func BenchmarkSamplerScalar_Paper(b *testing.B) { benchScalar(b, 2, 4) }
func BenchmarkSamplerBlock_Paper(b *testing.B)  { benchBlock(b, 2, 4) }
func BenchmarkSamplerScalar_UF20(b *testing.B)  { benchScalar(b, 20, 91) }
func BenchmarkSamplerBlock_UF20(b *testing.B)   { benchBlock(b, 20, 91) }
