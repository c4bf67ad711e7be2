// Benchmark harness: one benchmark group per experiment in DESIGN.md's
// per-experiment index (E1-E10), regenerating the paper's figure, its
// worked examples, and the Section III-F / Section V analyses. Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the experiment's headline metric through
// b.ReportMetric in addition to timing, so the bench output doubles as
// the experiment record (EXPERIMENTS.md quotes it).
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/gen"
)

// BenchmarkE1_Fig1_MeanTrace regenerates Figure 1: running mean of S_N
// versus sample count for S_SAT and S_UNSAT (n=2, m=4, U[-0.5,0.5]).
// The reported metrics are the final normalized means (SAT target 1.0,
// UNSAT target 0.0).
func BenchmarkE1_Fig1_MeanTrace(b *testing.B) {
	var last exp.Fig1Point
	for i := 0; i < b.N; i++ {
		pts := exp.Fig1(uint64(i+1), 1_000_000, 20)
		last = pts[len(pts)-1]
	}
	pred := 4.0 / (12 * 12 * 12 * 12 * 12 * 12 * 12 * 12) // K'=4 · (1/12)^8
	b.ReportMetric(last.MeanSAT/pred, "sat-mean-normalized")
	b.ReportMetric(last.MeanUNSAT/pred, "unsat-mean-normalized")
}

// BenchmarkE2_Examples6and7 runs the single-operation SAT check on the
// paper's worked examples with the Monte-Carlo engine.
func BenchmarkE2_Examples6and7(b *testing.B) {
	correct := 0
	for i := 0; i < b.N; i++ {
		rows := exp.Example67(uint64(i+1), 400_000)
		for _, r := range rows {
			if r.Got == r.Want {
				correct++
			}
		}
	}
	b.ReportMetric(float64(correct)/float64(2*b.N), "decision-accuracy")
}

// BenchmarkE3_SNRScaling sweeps (n, m) and compares the measured SNR
// with the Section III-F prediction sqrt(N-1)/(3·2^(nm)).
func BenchmarkE3_SNRScaling(b *testing.B) {
	var rows []exp.SNRRow
	for i := 0; i < b.N; i++ {
		rows = exp.SNRScaling(uint64(i+1), [][2]int{{2, 2}, {2, 3}, {2, 4}, {3, 3}}, 8, 60_000)
	}
	if len(rows) > 0 {
		first, lastRow := rows[0], rows[len(rows)-1]
		b.ReportMetric(first.EmpiricalSNR/first.PredictedSNR, "snr-ratio-nm4")
		b.ReportMetric(lastRow.RequiredLog10-first.RequiredLog10, "budget-growth-decades")
	}
}

// BenchmarkE4_Assignment runs Algorithm 2 end to end on Example 6 and
// checks the linear bound of at most n+1 check operations.
func BenchmarkE4_Assignment(b *testing.B) {
	linearHeld, verified := 0, 0
	for i := 0; i < b.N; i++ {
		a, _, linear, err := exp.AssignDemo(gen.PaperExample6(), uint64(i+1), 400_000)
		if err != nil {
			b.Fatal(err)
		}
		if linear {
			linearHeld++
		}
		if a.Satisfies(gen.PaperExample6()) {
			verified++
		}
	}
	b.ReportMetric(float64(linearHeld)/float64(b.N), "linear-bound-held")
	b.ReportMetric(float64(verified)/float64(b.N), "models-verified")
}

// BenchmarkE5_KScaling measures E[S_N] against the planted model count:
// the mean must scale linearly with K' (paper's K-multiplier note).
func BenchmarkE5_KScaling(b *testing.B) {
	var rows []exp.KScalingRow
	for i := 0; i < b.N; i++ {
		rows = exp.KScaling(uint64(i+5), 2, []uint64{1, 2, 3}, 500_000)
	}
	if len(rows) == 3 && rows[0].ExactMean > 0 {
		b.ReportMetric(rows[2].MeasuredMean/rows[0].MeasuredMean, "mean-ratio-K3-over-K1")
		b.ReportMetric(rows[2].ExactMean/rows[0].ExactMean, "exact-ratio-K3-over-K1")
	}
}

// BenchmarkE6_SourceFamilies is the source-family ablation: identical
// decisions across U[-0.5,0.5], unit uniform, Gaussian, RTW and pulse
// sources.
func BenchmarkE6_SourceFamilies(b *testing.B) {
	correct, total := 0, 0
	for i := 0; i < b.N; i++ {
		rows := exp.SourceFamilies(uint64(i+1), 400_000)
		for _, r := range rows {
			total++
			if r.Got == r.Want {
				correct++
			}
		}
	}
	b.ReportMetric(float64(correct)/float64(total), "decision-accuracy")
}

// BenchmarkE7_SBL runs the sinusoid-based engine with both frequency
// plans, reporting the geometric plan's exact DC read-out error and the
// bandwidth gap documented in DESIGN.md.
func BenchmarkE7_SBL(b *testing.B) {
	var rows []exp.SBLRow
	for i := 0; i < b.N; i++ {
		rows = exp.SBLTradeoff(1 << 18)
	}
	var geoErr, bwRatio float64
	for _, r := range rows {
		if r.Allocation == "geometric4" && r.Instance == "Example6" && r.FullPeriod {
			geoErr = r.DC - r.KPrime
			bwRatio = r.Bandwidth
		}
	}
	b.ReportMetric(geoErr, "geometric-dc-error")
	b.ReportMetric(bwRatio, "geometric-bandwidth")
}

// BenchmarkE8_AnalogEngine compiles the Figure 1 instances to the
// Section V block netlist and decides them on the simulated hardware.
func BenchmarkE8_AnalogEngine(b *testing.B) {
	correct, total := 0, 0
	for i := 0; i < b.N; i++ {
		rows := exp.AnalogEngine(uint64(i+1), 400_000)
		for _, r := range rows {
			total++
			if r.Got == r.Want {
				correct++
			}
		}
	}
	b.ReportMetric(float64(correct)/float64(total), "decision-accuracy")
}

// BenchmarkE9_HybridGuidance compares NBL-guided DPLL with plain DPLL on
// random 3-SAT at the phase transition; the metric is the backtrack
// count under exact guidance (paper's claim: guided search avoids dead
// subspaces; exact guidance should backtrack zero times).
func BenchmarkE9_HybridGuidance(b *testing.B) {
	var totalPlainBT, totalHybridBT, rowsN int64
	for i := 0; i < b.N; i++ {
		rows := exp.Hybrid(uint64(i+1), 12, 5)
		for _, r := range rows {
			totalPlainBT += r.PlainBacktracks
			totalHybridBT += r.HybridBacktrack
			rowsN++
		}
	}
	if rowsN > 0 {
		b.ReportMetric(float64(totalPlainBT)/float64(rowsN), "plain-backtracks")
		b.ReportMetric(float64(totalHybridBT)/float64(rowsN), "hybrid-backtracks")
	}
}

// BenchmarkE10_SolverComparison times every engine in the repository on
// the same instance (Example 6), the context experiment for the paper's
// single-operation claim versus classical search.
func BenchmarkE10_SolverComparison(b *testing.B) {
	agree := 0
	for i := 0; i < b.N; i++ {
		rows := exp.SolverComparison(gen.PaperExample6(), uint64(i+1), 300_000)
		ok := true
		for _, r := range rows {
			if r.Solver != "walksat" && r.Verdict != "SAT" {
				ok = false
			}
		}
		if ok {
			agree++
		}
	}
	b.ReportMetric(float64(agree)/float64(b.N), "all-complete-agree")
}

// BenchmarkCheckThroughput measures raw S_N sampling throughput of the
// Monte-Carlo engine on the Figure 1 instance (per-op time is the cost
// of one full check at the fixed budget).
func BenchmarkCheckThroughput(b *testing.B) {
	f := gen.PaperSAT()
	for i := 0; i < b.N; i++ {
		eng, err := core.NewEngine(f, core.Options{
			Family: UniformUnit, Seed: uint64(i + 1),
			MaxSamples: 200_000, MinSamples: 200_000, CheckEvery: 200_000,
		})
		if err != nil {
			b.Fatal(err)
		}
		eng.Check()
	}
}
