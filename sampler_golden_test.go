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
)

// samplerGoldenRuns are the sampled solves TestSamplerGolden pins. Each
// entry's sum is one SHA-256 over the outcome of every formula, in
// order: Status, Samples, the bits of Mean, StdErr and z = Mean/StdErr,
// and the model. The kernel names and the wall clock are left out; the
// first varies with the host's CPU, the second with its load.
var samplerGoldenRuns = []struct {
	label    string
	engine   string
	cfg      Config
	formulas func() []*Formula
	sum      string
}{
	{"mc workers=1 uf20-91", "mc", Config{Seed: 7, MaxSamples: 50_000, Workers: 1}, uf20Golden,
		"51a8150bd5f3e2f882dc5a020b89ee8426427b40aab10b83a663ea63d6b55faa"},
	{"mc workers=2 uf20-91", "mc", Config{Seed: 7, MaxSamples: 50_000, Workers: 2}, uf20Golden,
		"51a8150bd5f3e2f882dc5a020b89ee8426427b40aab10b83a663ea63d6b55faa"},
	{"mc workers=2 3-SAT 10/40", "mc", Config{Seed: 9, MaxSamples: 50_000, Workers: 2}, mid3SATGolden,
		"8a83e90583ecb7345b613f161faaf16bc487cd6607a68b990efc75b71f6cfd5f"},
	{"mc FindModel paper", "mc", Config{Seed: 3, FindModel: true}, paperGolden,
		"0d615aadff5d6caf7277aa4abeab62ece2144ac6c4bce92d2c4dcd8876798068"},
	{"rtw paper", "rtw", Config{Seed: 5, MaxSamples: 1_000_000}, paperPairGolden,
		"d3a6de6dc05a5eb36cb4e410b877fc7bf26cd54322e84c735baf0f5b9ed99135"},
	{"sbl paper", "sbl", Config{Seed: 5, MaxSamples: 1_000_000}, paperPairGolden,
		"5957ae08e116d4ed9f2f734a39097dd4e0080db4dc7c27ad4e8251e2ebe01909"},
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

// TestSamplerGolden pins what the sampled engines answer, bit for bit,
// across the S_N kernels beneath them: mc at two worker counts on
// uf20-91, Algorithm 2's model extraction on the paper's instances, and
// rtw and sbl. The block-versus-scalar tests in internal/hyperspace
// compare two paths of one build, so they cannot see a change to the
// scalar kernel itself; a change that moves a sum here changes the
// samples, statistics or models clients see.
func TestSamplerGolden(t *testing.T) {
	for _, run := range samplerGoldenRuns {
		s, err := NewWith(run.engine, run.cfg)
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
