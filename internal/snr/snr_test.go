package snr

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/noise"
)

func TestPaperSNRFormula(t *testing.T) {
	// n=2, m=4 (the Figure 1 shape), K=1, N=1e6:
	// SNR = sqrt(1e6-1)/(3*2^8) ≈ 1.302.
	got := PaperSNR(2, 4, 1_000_000, 1)
	want := math.Sqrt(999_999) / (3 * 256)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("PaperSNR = %v, want %v", got, want)
	}
	// K scales linearly.
	if k4 := PaperSNR(2, 4, 1_000_000, 4); math.Abs(k4-4*want) > 1e-12 {
		t.Errorf("K=4 scaling: %v, want %v", k4, 4*want)
	}
	if PaperSNR(2, 4, 1, 1) != 0 {
		t.Error("SNR with <2 samples should be 0")
	}
}

func TestRequiredSamplesInvertsSNR(t *testing.T) {
	n, m, k, target := 2, 3, 2.0, 5.0
	need := core.RequiredSamples(n, m, k, target)
	got := PaperSNR(n, m, int64(need), k)
	if math.Abs(got-target) > 0.01*target {
		t.Errorf("SNR at required samples = %v, want %v", got, target)
	}
}

func TestRequiredSamplesLog10(t *testing.T) {
	lin := core.RequiredSamples(2, 3, 1, 2)
	lg := RequiredSamplesLog10(2, 3, 1, 2)
	// The +1 in the linear form is negligible here.
	if math.Abs(lg-math.Log10(lin-1)) > 1e-9 {
		t.Errorf("log form %v vs log10(linear-1) %v", lg, math.Log10(lin-1))
	}
	// Exponential growth: each extra clause on n variables multiplies
	// the budget by 2^(2n).
	d := RequiredSamplesLog10(3, 5, 1, 2) - RequiredSamplesLog10(3, 4, 1, 2)
	if math.Abs(d-6*math.Log10(2)) > 1e-9 {
		t.Errorf("per-clause growth = %v decades, want %v", d, 6*math.Log10(2))
	}
}

func TestMu1(t *testing.T) {
	// Example 6 with unit-variance sources: K' = 2.
	if got := Mu1(gen.PaperExample6(), noise.UniformUnit); math.Abs(got-2) > 1e-12 {
		t.Errorf("Mu1 = %v, want 2", got)
	}
	// With the paper's family: 2 * (1/12)^4.
	want := 2 * math.Pow(1.0/12, 4)
	if got := Mu1(gen.PaperExample6(), noise.UniformHalf); math.Abs(got-want) > 1e-18 {
		t.Errorf("Mu1 = %v, want %v", got, want)
	}
	if got := Mu1(gen.PaperUNSAT(), noise.UniformHalf); got != 0 {
		t.Errorf("Mu1 of UNSAT = %v, want 0", got)
	}
}

func TestMeasureAndEmpiricalSNR(t *testing.T) {
	// Small instances, unit variance: the measured moments should place
	// the SAT instance's mean near K' and give a clearly positive SNR,
	// while the UNSAT reference centers on zero.
	const batches, per = 12, 60_000
	sat, err := Measure(gen.PaperExample6(), noise.UniformUnit, 5, batches, per)
	if err != nil {
		t.Fatal(err)
	}
	unsat, err := Measure(gen.PaperExample7(), noise.UniformUnit, 6, batches, per)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sat.MeanOfMeans-2) > 0.5 {
		t.Errorf("sat mean-of-means = %v, want ~2", sat.MeanOfMeans)
	}
	if math.Abs(unsat.MeanOfMeans) > 0.2 {
		t.Errorf("unsat mean-of-means = %v, want ~0", unsat.MeanOfMeans)
	}
	if sat.Batches != batches || sat.SamplesPerBatch != per {
		t.Errorf("measurement shape not recorded: %+v", sat)
	}
	if got := Empirical(sat, unsat); got <= 0 {
		t.Errorf("empirical SNR = %v, want > 0", got)
	}
}

func TestEmpiricalZeroDenominator(t *testing.T) {
	if !math.IsInf(Empirical(Moments{MeanOfMeans: 1}, Moments{}), 1) {
		t.Error("zero sigma0 should give +Inf")
	}
}

func TestMeasurePropagatesEngineError(t *testing.T) {
	f := gen.PaperExample6()
	f.NumVars = 0 // force constructor error
	if _, err := Measure(f, noise.UniformUnit, 1, 2, 100); err == nil {
		t.Error("expected engine construction error")
	}
}
