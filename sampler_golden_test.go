package repro

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/sbl"
)

// samplerGoldenRuns are the sampled solves TestSamplerGolden pins. Each
// entry's sum is one SHA-256 over the outcome of every formula, in
// order: Status, Samples, the bits of Mean, StdErr and z = Mean/StdErr,
// and the model. Only the wall clock is left out: it varies with the
// host's load.
var samplerGoldenRuns = []struct {
	label    string
	solver   func() (Solver, error)
	formulas func() []*Formula
	sum      string
}{
	{"mc workers=1 uf20-91", registry("mc", Config{Seed: 7, MaxSamples: 50_000, Workers: 1}), uf20Golden,
		"51a8150bd5f3e2f882dc5a020b89ee8426427b40aab10b83a663ea63d6b55faa"},
	{"mc workers=2 uf20-91", registry("mc", Config{Seed: 7, MaxSamples: 50_000, Workers: 2}), uf20Golden,
		"51a8150bd5f3e2f882dc5a020b89ee8426427b40aab10b83a663ea63d6b55faa"},
	{"mc workers=2 3-SAT 10/40", registry("mc", Config{Seed: 9, MaxSamples: 50_000, Workers: 2}), mid3SATGolden,
		"8a83e90583ecb7345b613f161faaf16bc487cd6607a68b990efc75b71f6cfd5f"},
	{"mc FindModel paper", registry("mc", Config{Seed: 3, FindModel: true}), paperGolden,
		"0d615aadff5d6caf7277aa4abeab62ece2144ac6c4bce92d2c4dcd8876798068"},
	{"rtw paper", registry("rtw", Config{Seed: 5, MaxSamples: 1_000_000}), paperPairGolden,
		"d3a6de6dc05a5eb36cb4e410b877fc7bf26cd54322e84c735baf0f5b9ed99135"},
	// The registry's sbl reads a verdict only off a full carrier period
	// and answers UNKNOWN without sampling when the period exceeds the
	// budget. Examples 6 and 7 (periods 2·4^8 and 2·4^4) fit; the paper
	// pair (2·4^16) does not, so its truncated window, which the
	// experiments still observe, is pinned through the engine itself.
	{"sbl full period", registry("sbl", Config{Seed: 5, MaxSamples: 1_000_000}), fullPeriodGolden,
		"029985b0c1b9507fe7376e339063133bfdf11634a6f439b8e7d437bcb7d6460c"},
	{"sbl paper", func() (Solver, error) { return sblWindow{1_000_000}, nil }, paperPairGolden,
		"5957ae08e116d4ed9f2f734a39097dd4e0080db4dc7c27ad4e8251e2ebe01909"},
}

func registry(engine string, cfg Config) func() (Solver, error) {
	return func() (Solver, error) { return NewWith(engine, cfg) }
}

// sblWindow solves by one sbl.Engine.CheckCtx over a window of
// maxSamples, reported UNKNOWN with the window's length and mean: the
// paper pair's periods exceed the window, so the mean is the truncated
// read-out the experiments plot, never a verdict.
type sblWindow struct{ maxSamples int64 }

func (s sblWindow) Solve(ctx context.Context, f *Formula) (Result, error) {
	eng, err := sbl.New(f, sbl.Options{MaxSamples: s.maxSamples})
	if err != nil {
		return Result{}, err
	}
	r, err := eng.CheckCtx(ctx)
	return Result{Stats: Stats{Samples: r.Samples, Mean: r.Mean}}, err
}

// uf20Golden returns three uniform random 3-SAT formulas at the uf20-91
// geometry the sample-uf20 benchmark workload samples.
func uf20Golden() []*Formula {
	return []*Formula{RandomKSAT(1, 20, 91, 3), RandomKSAT(2, 20, 91, 3), RandomKSAT(3, 20, 91, 3)}
}

// mid3SATGolden returns three random 3-SAT formulas of 10 variables and
// 40 clauses. At uf20-91 τ_N, a product of 20·91 factors of magnitude
// about e^-0.45 each, underflows to ±0 on every sample, so the uf20-91
// sums pin sample counts and signed zeros; at this geometry every
// statistic is a finite nonzero number.
func mid3SATGolden() []*Formula {
	return []*Formula{RandomKSAT(4, 10, 40, 3), RandomKSAT(5, 10, 40, 3), RandomKSAT(6, 10, 40, 3)}
}

// paperGolden returns the paper's five instances.
func paperGolden() []*Formula {
	return []*Formula{gen.PaperSAT(), gen.PaperUNSAT(), gen.PaperExample5(), gen.PaperExample6(), gen.PaperExample7()}
}

func paperPairGolden() []*Formula { return []*Formula{gen.PaperSAT(), gen.PaperUNSAT()} }

// fullPeriodGolden returns the paper's instances whose sbl carrier
// period fits a 1,000,000-sample budget.
func fullPeriodGolden() []*Formula { return []*Formula{gen.PaperExample6(), gen.PaperExample7()} }

// TestSamplerGolden pins what the sampled engines answer, bit for bit,
// across the S_N kernels beneath them: mc at two worker counts on
// uf20-91, Algorithm 2's model extraction on the paper's instances, and
// rtw and sbl. The block-versus-scalar tests in internal/hyperspace
// compare two paths of one build, so they cannot see a change to the
// scalar kernel itself; a change that moves a sum here changes the
// samples, statistics or models clients see.
func TestSamplerGolden(t *testing.T) {
	for _, run := range samplerGoldenRuns {
		s, err := run.solver()
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, f := range run.formulas() {
			r, err := s.Solve(context.Background(), f)
			if err != nil {
				fmt.Fprintf(h, "error %v\n", err)
				continue
			}
			z := 0.0
			if r.Stats.StdErr > 0 {
				z = r.Stats.Mean / r.Stats.StdErr
			}
			fmt.Fprintf(h, "%v samples %d mean %#x stderr %#x z %#x model %v\n", r.Status, r.Stats.Samples,
				math.Float64bits(r.Stats.Mean), math.Float64bits(r.Stats.StdErr), math.Float64bits(z), []cnf.Value(r.Assignment))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != run.sum {
			t.Errorf("%s: sha256 %s", run.label, got)
		}
	}
}
