// Package snr implements the scalability analysis of Section III-F of
// the paper: the signal-to-noise ratio of the NBL-SAT decision statistic
// and the sample budgets it implies.
//
// The paper defines
//
//	SNR = (mu1 - 3·sigma1) / (mu0 + 3·sigma0)
//
// where mu_i / sigma_i are the expectation and standard deviation of the
// *running mean* of S_N when the instance has i satisfying minterms
// (mu0 = 0). For uniform [-0.5, 0.5] sources it derives
//
//	mu1    = (1/12)^(nm)
//	sigma1 = sigma0 = (1/12)^(nm) · 2^(nm) / sqrt(N-1)
//
// giving, for SNR >> 1,
//
//	SNR = sqrt(N-1) / (3 · 2^(nm))
//
// scaled by K when K satisfying minterms exist. The required sample
// count is therefore exponential in n·m — the honest scalability caveat
// this package quantifies (experiment E3) and measures empirically.
package snr

import (
	"math"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/noise"
	"repro/internal/stats"
)

// PaperSNR returns the Section III-F prediction
// K·sqrt(N-1)/(3·2^(nm)). It underflows to 0 for very large n·m.
func PaperSNR(n, m int, samples int64, k float64) float64 {
	if samples < 2 {
		return 0
	}
	return k * math.Sqrt(float64(samples-1)) / (3 * math.Exp2(float64(n*m)))
}

// RequiredSamplesLog10 returns log10(core.RequiredSamples), stable for
// any n·m.
func RequiredSamplesLog10(n, m int, k, target float64) float64 {
	return 2 * (math.Log10(3*target) + float64(n*m)*math.Log10(2) - math.Log10(k))
}

// Mu1 returns the exact expected mean E[S_N] = K'·sigma^(2nm) for the
// instance under the family, via the core exact engine.
func Mu1(f *cnf.Formula, fam noise.Family) float64 {
	return core.ExactMean(f, cnf.NewAssignment(f.NumVars), fam)
}

// Moments summarizes repeated independent estimates of mean(S_N).
type Moments struct {
	// MeanOfMeans estimates mu_i: the expectation of the running mean.
	MeanOfMeans float64
	// StdOfMeans estimates sigma_i: the standard deviation of the
	// running mean across batches.
	StdOfMeans float64
	// Batches and SamplesPerBatch record the measurement shape.
	Batches         int
	SamplesPerBatch int64
}

// Measure runs `batches` independent Monte-Carlo estimates of mean(S_N)
// for f (each over samplesPerBatch noise samples, with per-batch seeds
// derived from seed) and returns the observed distribution of the mean.
// This is the empirical counterpart of the paper's mu-hat and sigma-hat.
func Measure(f *cnf.Formula, fam noise.Family, seed uint64, batches int, samplesPerBatch int64) (Moments, error) {
	var means stats.Welford
	for b := 0; b < batches; b++ {
		eng, err := core.NewEngine(f, core.Options{
			Family:     fam,
			Seed:       seed + uint64(b)*0x9e3779b97f4a7c15,
			MaxSamples: samplesPerBatch,
			MinSamples: samplesPerBatch, // disable early convergence stop
			CheckEvery: samplesPerBatch,
		})
		if err != nil {
			return Moments{}, err
		}
		r := eng.Check()
		means.Add(r.Mean)
	}
	return Moments{
		MeanOfMeans:     means.Mean(),
		StdOfMeans:      means.StdDev(),
		Batches:         batches,
		SamplesPerBatch: samplesPerBatch,
	}, nil
}

// Empirical computes the paper's SNR from measured moments of a
// satisfiable instance (sat) and an unsatisfiable reference (unsat):
// (mu1 - 3·sigma1) / (mu0 + 3·sigma0) with mu0 taken as its theoretical
// value 0 (the measured mu0 would add sign noise, not information).
func Empirical(sat, unsat Moments) float64 {
	denom := 3 * unsat.StdOfMeans
	if denom == 0 {
		return math.Inf(1)
	}
	return (sat.MeanOfMeans - 3*sat.StdOfMeans) / denom
}
