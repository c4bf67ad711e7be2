package exp

import (
	"context"
	"fmt"
	"math/big"
	"time"

	"repro/internal/analog"
	"repro/internal/cdcl"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/count"
	"repro/internal/dpll"
	"repro/internal/gen"
	"repro/internal/hybrid"
	"repro/internal/noise"
	"repro/internal/rng"
	_ "repro/internal/rtw" // registers "rtw" for E10
	"repro/internal/sbl"
	"repro/internal/snr"
	"repro/internal/solver"
	"repro/internal/walksat"
)

// Fig1Point is one sample of the Figure 1 series: the running S_N mean
// of the SAT and UNSAT instances at a given sample count.
type Fig1Point struct {
	Samples   int64
	MeanSAT   float64
	MeanUNSAT float64
}

// Fig1 regenerates the data behind the paper's Figure 1: the running
// mean of S_N versus number of noise samples for S_SAT and S_UNSAT
// (n=2, m=4, uniform [-0.5, 0.5] sources). The paper runs to 1e8
// samples; the budget is a parameter so benches stay fast.
func Fig1(seed uint64, maxSamples, points int64) []Fig1Point {
	every := maxSamples / points
	if every < 1 {
		every = 1
	}
	mk := func(f *cnf.Formula, s uint64) []core.TracePoint {
		eng, err := core.NewEngine(f, core.Options{
			Family: noise.UniformHalf,
			Seed:   s,
		})
		if err != nil {
			panic(err)
		}
		return eng.MeanTrace(every, maxSamples)
	}
	sat := mk(gen.PaperSAT(), seed)
	unsat := mk(gen.PaperUNSAT(), seed+1)
	out := make([]Fig1Point, 0, len(sat))
	for i := range sat {
		out = append(out, Fig1Point{
			Samples:   sat[i].Samples,
			MeanSAT:   sat[i].Mean,
			MeanUNSAT: unsat[i].Mean,
		})
	}
	return out
}

// Fig1Table renders a Figure 1 series, normalizing the means by the
// exact prediction E[S_N] = K'·(1/12)^(nm) of the SAT instance so the
// convergence target is 1.0.
func Fig1Table(points []Fig1Point) *Table {
	pred := core.ExactMean(gen.PaperSAT(), cnf.NewAssignment(2), noise.UniformHalf)
	t := &Table{
		Title:   "E1 / Figure 1: running mean of S_N (normalized to exact E[S_N] of S_SAT)",
		Headers: []string{"samples", "mean(S_SAT)/pred", "mean(S_UNSAT)/pred"},
	}
	for _, p := range points {
		t.AddRow(p.Samples, p.MeanSAT/pred, p.MeanUNSAT/pred)
	}
	return t
}

// CheckOutcome is one decision record used by several experiments.
type CheckOutcome struct {
	Name        string
	Want        bool
	Got         bool
	Mean        float64
	ZScore      float64
	Samples     int64
	Elapsed     time.Duration
	ExtraColumn string
}

// Example67 runs E2: the single-operation checks of Examples 6 and 7
// with both the exact and Monte-Carlo engines.
func Example67(seed uint64, maxSamples int64) []CheckOutcome {
	var out []CheckOutcome
	for _, tc := range []struct {
		name string
		f    *cnf.Formula
		want bool
	}{
		{"Example6 (x1+x2)(!x1+!x2)", gen.PaperExample6(), true},
		{"Example7 (x1)(!x1)", gen.PaperExample7(), false},
	} {
		start := time.Now()
		eng, err := core.NewEngine(tc.f, core.Options{
			Family: noise.UniformUnit, Seed: seed, MaxSamples: maxSamples,
		})
		if err != nil {
			panic(err)
		}
		r := eng.Check()
		out = append(out, CheckOutcome{
			Name: tc.name, Want: tc.want, Got: r.Satisfiable,
			Mean: r.Mean, ZScore: r.ZScore, Samples: r.Samples,
			Elapsed:     time.Since(start),
			ExtraColumn: fmt.Sprintf("exact=%v", core.ExactCheck(tc.f)),
		})
	}
	return out
}

// SNRRow is one point of the E3 scaling sweep.
type SNRRow struct {
	N, M          int
	Samples       int64
	PredictedSNR  float64
	EmpiricalSNR  float64
	Mu1Exact      float64
	Mu1Measured   float64
	RequiredLog10 float64 // log10 samples for SNR=2 at K=1
}

// SNRScaling runs E3: for a sweep of (n, m) pairs it measures the
// empirical SNR of a one-model instance against the Section III-F
// prediction, and reports the predicted sample budget growth.
func SNRScaling(seed uint64, dims [][2]int, batches int, samplesPerBatch int64) []SNRRow {
	var out []SNRRow
	for _, d := range dims {
		n, m := d[0], d[1]
		// A one-model instance over n variables: unit clauses would make
		// it trivial, so use ExactlyK(n, 1) padded to m clauses by
		// repeating the first blocking clause's complement... simplest:
		// conjunction of n unit clauses then pad with a repeated clause.
		f := oneModelInstance(n, m)
		sat, err := snr.Measure(f, noise.UniformHalf, seed, batches, samplesPerBatch)
		if err != nil {
			panic(err)
		}
		unsatF := unsatInstance(n, m)
		unsat, err := snr.Measure(unsatF, noise.UniformHalf, seed+1, batches, samplesPerBatch)
		if err != nil {
			panic(err)
		}
		kp, _ := new(big.Float).SetInt(core.WeightedCount(f, cnf.NewAssignment(n))).Float64()
		out = append(out, SNRRow{
			N: n, M: m, Samples: samplesPerBatch,
			PredictedSNR:  snr.PaperSNR(n, m, samplesPerBatch, kp),
			EmpiricalSNR:  snr.Empirical(sat, unsat),
			Mu1Exact:      snr.Mu1(f, noise.UniformHalf),
			Mu1Measured:   sat.MeanOfMeans,
			RequiredLog10: snr.RequiredSamplesLog10(n, m, 1, 2),
		})
	}
	return out
}

// oneModelInstance builds a CNF over n variables with exactly one model
// (all-true) and exactly m clauses: n unit clauses plus m-n copies of
// (x1 + x2...) satisfied clauses... it requires m >= n.
func oneModelInstance(n, m int) *cnf.Formula {
	if m < n {
		panic("exp: oneModelInstance needs m >= n")
	}
	f := cnf.New(n)
	for v := 1; v <= n; v++ {
		f.Add(v)
	}
	for j := n; j < m; j++ {
		f.Add(1) // redundant copies keep the model count at 1, m exact
	}
	return f
}

// unsatInstance builds an UNSAT CNF over n variables with m clauses
// (m >= 2): (x1)(!x1) plus padding.
func unsatInstance(n, m int) *cnf.Formula {
	if m < 2 {
		panic("exp: unsatInstance needs m >= 2")
	}
	f := cnf.New(n)
	f.Add(1)
	f.Add(-1)
	for j := 2; j < m; j++ {
		f.Add(1)
	}
	return f
}

// KScalingRow is one point of E5.
type KScalingRow struct {
	K            uint64
	KPrime       float64
	MeasuredMean float64
	ExactMean    float64
}

// KScaling runs E5: MC mean versus planted model count K on ExactlyK
// instances over n variables, confirming E[S_N] tracks the weighted
// count K' (and hence the paper's "SNR multiplied by K" note).
//
// ExactlyK(n, k) has 2^n - k clauses, so the sweep would change the
// noise dimensionality n·m along with K; every instance is therefore
// padded to a common clause count with tautologies (x1 + !x1), which
// leave K' and E[S_N] untouched (each minterm satisfies a tautology via
// exactly one literal, multiplying its weight by 1).
func KScaling(seed uint64, n int, ks []uint64, samples int64) []KScalingRow {
	maxM := 0
	for _, k := range ks {
		if m := gen.ExactlyK(n, k).NumClauses(); m > maxM {
			maxM = m
		}
	}
	var out []KScalingRow
	for _, k := range ks {
		f := gen.ExactlyK(n, k)
		for f.NumClauses() < maxM {
			f.Add(1, -1)
		}
		eng, err := core.NewEngine(f, core.Options{
			Family: noise.UniformUnit, Seed: seed + k,
			MaxSamples: samples, MinSamples: samples, CheckEvery: samples,
		})
		if err != nil {
			panic(err)
		}
		r := eng.Check()
		kp, _ := new(big.Float).SetInt(core.WeightedCount(f, cnf.NewAssignment(n))).Float64()
		out = append(out, KScalingRow{
			K:            k,
			KPrime:       kp,
			MeasuredMean: r.Mean,
			ExactMean:    core.ExactMean(f, cnf.NewAssignment(n), noise.UniformUnit),
		})
	}
	return out
}

// FamilyRow is one row of the E6 source-family ablation.
type FamilyRow struct {
	Family   string
	Instance string
	Want     bool
	Got      bool
	ZScore   float64
	NsPerOp  float64
}

// SourceFamilies runs E6: decision quality and throughput for every
// noise family on the Figure 1 instances. The rtw(±1) rows also stand
// for the rtw engine, which samples geometries this small on the same
// sampler.
func SourceFamilies(seed uint64, samples int64) []FamilyRow {
	var out []FamilyRow
	instances := []struct {
		name string
		f    *cnf.Formula
		want bool
	}{
		{"S_SAT", gen.PaperSAT(), true},
		{"S_UNSAT", gen.PaperUNSAT(), false},
	}
	for _, fam := range []noise.Family{
		noise.UniformHalf, noise.UniformUnit, noise.Gaussian, noise.RTW, noise.Pulse,
	} {
		for _, inst := range instances {
			eng, err := core.NewEngine(inst.f, core.Options{
				Family: fam, Seed: seed, MaxSamples: samples,
				MinSamples: samples, CheckEvery: samples,
			})
			if err != nil {
				panic(err)
			}
			start := time.Now()
			r := eng.Check()
			out = append(out, FamilyRow{
				Family: fam.String(), Instance: inst.name,
				Want: inst.want, Got: r.Satisfiable, ZScore: r.ZScore,
				NsPerOp: float64(time.Since(start).Nanoseconds()) / float64(r.Samples),
			})
		}
	}
	return out
}

// SBLRow is one row of E7.
type SBLRow struct {
	Instance   string
	Allocation string
	Bandwidth  float64
	DC         float64
	KPrime     float64
	FullPeriod bool
	Correct    bool
}

// SBLTradeoff runs E7: exactness versus bandwidth for the two frequency
// plans on the paper's small instances.
func SBLTradeoff(maxSamples int64) []SBLRow {
	var out []SBLRow
	instances := []struct {
		name string
		f    *cnf.Formula
		sat  bool
	}{
		{"Example6", gen.PaperExample6(), true},
		{"Example7", gen.PaperExample7(), false},
	}
	for _, alloc := range []sbl.Allocation{sbl.Geometric4, sbl.Linear} {
		for _, inst := range instances {
			eng, err := sbl.New(inst.f, sbl.Options{Alloc: alloc, MaxSamples: maxSamples})
			if err != nil {
				panic(err)
			}
			r := eng.Check()
			kp, _ := new(big.Float).SetInt(
				core.WeightedCount(inst.f, cnf.NewAssignment(inst.f.NumVars))).Float64()
			out = append(out, SBLRow{
				Instance:   inst.name,
				Allocation: alloc.String(),
				Bandwidth:  sbl.Bandwidth(inst.f.NumVars, inst.f.NumClauses(), alloc),
				DC:         r.Mean,
				KPrime:     kp,
				FullPeriod: r.FullPeriod,
				Correct:    r.Satisfiable == inst.sat,
			})
		}
	}
	return out
}

// AnalogRow is one row of E8.
type AnalogRow struct {
	Instance   string
	Want, Got  bool
	Mean       float64
	Components string
}

// AnalogEngine runs E8: compile the Figure 1 instances to the Section V
// block netlist and check them on the simulated hardware.
func AnalogEngine(seed uint64, steps int64) []AnalogRow {
	var out []AnalogRow
	for _, inst := range []struct {
		name string
		f    *cnf.Formula
		want bool
	}{
		{"S_SAT", gen.PaperSAT(), true},
		{"S_UNSAT", gen.PaperUNSAT(), false},
	} {
		eng, err := analog.Compile(inst.f, noise.UniformUnit, seed)
		if err != nil {
			panic(err)
		}
		r := eng.Check(steps, 4)
		out = append(out, AnalogRow{
			Instance: inst.name, Want: inst.want, Got: r.Satisfiable,
			Mean: r.Mean, Components: eng.Blocks.String(),
		})
	}
	return out
}

// HybridRow is one row of E9.
type HybridRow struct {
	Instance        string
	PlainDecisions  int64
	PlainBacktracks int64
	HybridDecisions int64
	HybridBacktrack int64
	Probes          int64
}

// Hybrid runs E9: NBL-guided DPLL versus plain DPLL decision counts on
// satisfiable random 3-SAT near the phase transition (m/n = 4.26).
func Hybrid(seed uint64, n, instances int) []HybridRow {
	g := rng.New(seed)
	m := int(4.26 * float64(n))
	var out []HybridRow
	for i := 0; i < instances; i++ {
		f, _ := gen.PlantedKSAT(g, n, m, 3)
		plain := dpll.New(f, nil)
		if _, ok := plain.Solve(); !ok {
			continue // planted: should not happen
		}
		hres := hybrid.SolveExact(f)
		out = append(out, HybridRow{
			Instance:        fmt.Sprintf("3SAT n=%d m=%d #%d", n, m, i),
			PlainDecisions:  plain.Stats().Decisions,
			PlainBacktracks: plain.Stats().Backtracks,
			HybridDecisions: hres.DPLL.Decisions,
			HybridBacktrack: hres.DPLL.Backtracks,
			Probes:          hres.Probes,
		})
	}
	return out
}

// SolverRow is one row of E10.
type SolverRow struct {
	Solver  string
	Verdict string
	Elapsed time.Duration
}

// SolverComparison runs E10 on one instance: every engine in the
// repository against the same formula.
func SolverComparison(f *cnf.Formula, seed uint64, mcSamples int64) []SolverRow {
	var out []SolverRow
	timeIt := func(name string, run func() string) {
		start := time.Now()
		v := run()
		out = append(out, SolverRow{Solver: name, Verdict: v, Elapsed: time.Since(start)})
	}
	verdict := func(ok bool) string {
		if ok {
			return "SAT"
		}
		return "UNSAT"
	}
	timeIt("nbl-mc", func() string {
		eng, err := core.NewEngine(f, core.Options{
			Family: noise.UniformUnit, Seed: seed, MaxSamples: mcSamples,
		})
		if err != nil {
			panic(err)
		}
		return verdict(eng.Check().Satisfiable)
	})
	timeIt("nbl-exact", func() string { return verdict(core.ExactCheck(f)) })
	timeIt("rtw", func() string {
		s, err := solver.NewWith("rtw", solver.Config{Seed: seed, MaxSamples: mcSamples})
		if err != nil {
			panic(err)
		}
		r, err := s.Solve(context.Background(), f)
		if err != nil {
			panic(err)
		}
		if !r.Status.Definitive() {
			return "UNKNOWN"
		}
		return verdict(r.Status == solver.StatusSat)
	})
	timeIt("exhaustive", func() string { return verdict(count.Brute(f) > 0) })
	timeIt("dpll", func() string { _, ok := dpll.Solve(f); return verdict(ok) })
	timeIt("cdcl", func() string { _, ok := cdcl.Solve(f); return verdict(ok) })
	timeIt("walksat", func() string {
		r := walksat.Solve(f, walksat.Options{Seed: seed})
		if r.Found {
			return "SAT"
		}
		return "UNKNOWN"
	})
	return out
}

// AssignDemo runs E4 on a formula known to be satisfiable, returning the
// recovered assignment, the number of NBL check operations, and whether
// the linear bound of at most n+1 held.
func AssignDemo(f *cnf.Formula, seed uint64, maxSamples int64) (cnf.Assignment, int, bool, error) {
	eng, err := core.NewEngine(f, core.Options{
		Family: noise.UniformUnit, Seed: seed, MaxSamples: maxSamples,
	})
	if err != nil {
		return nil, 0, false, err
	}
	res, err := eng.Assign()
	if err != nil {
		return nil, len(res.Checks), false, err
	}
	return res.Assignment, len(res.Checks), len(res.Checks) <= f.NumVars+1, nil
}
