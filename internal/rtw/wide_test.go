package rtw

import (
	"context"
	"math"
	"math/big"
	"os"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/dimacs"
	"repro/internal/gen"
	"repro/internal/hyperspace"
	"repro/internal/noise"
	"repro/internal/solver"
	"repro/internal/stats"
)

// forceWide returns an engine over f whose checks run the wide kernel
// even where the float sampler would be exact.
func forceWide(t *testing.T, f *cnf.Formula, seed uint64) *Engine {
	t.Helper()
	e, err := New(f, core.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if e.wide {
		t.Fatal("test instance unexpectedly wide already")
	}
	e.wide = true
	e.wk.reset(f, seed)
	return e
}

// TestWideKernelMatchesEvaluator is the parity proof: on geometries of
// at most 53 bits, where the float evaluator is exact, the wide kernel
// must produce exactly the S_N of hyperspace.Evaluator.StepAt over a
// noise.RTW bank with the engine seed, sample for sample, across uneven
// blocks.
func TestWideKernelMatchesEvaluator(t *testing.T) {
	narrow, _ := widened() // exactly 53 bits
	formulas := []*cnf.Formula{
		gen.PaperSAT(),
		gen.PaperUNSAT(),
		gen.PaperExample5(),
		cnf.FromClauses([]int{1}, []int{-1}),
		cnf.FromClauses([]int{1, 2, 3}, []int{-2, 3}, []int{1, -3}, []int{-1, 2}),
		narrow,
	}
	var got big.Int
	for fi, f := range formulas {
		seed := uint64(40 + fi)
		e := forceWide(t, f, seed)
		ev := hyperspace.New(f, noise.NewBank(noise.RTW, seed, f.NumVars, f.NumClauses()))
		i := uint64(0)
		for _, k := range []int{1, 7, 256, 64, 33, 139} {
			e.wk.fill(k)
			for s := 0; s < k; s++ {
				want := ev.StepAt(i).S
				nonzero := e.wk.sample(k, s, &got)
				if nonzero != (want != 0) || nonzero && (!got.IsInt64() || float64(got.Int64()) != want) {
					t.Fatalf("formula %d sample %d: wide %v (%s) vs evaluator %v",
						fi, i, nonzero, got.String(), want)
				}
				i++
			}
		}
	}
}

// TestWideCheckMatchesEvaluatorMoments runs the wide check against a
// float Welford accumulation of the same stream: sample counts must be
// equal, the verdicts agree and the moments match to float64 rounding
// (the wide path sums exactly).
func TestWideCheckMatchesEvaluatorMoments(t *testing.T) {
	const samples = 60_000
	for fi, f := range []*cnf.Formula{gen.PaperSAT(), gen.PaperUNSAT()} {
		seed := uint64(7 + fi)
		e := forceWide(t, f, seed)
		r, err := e.wk.check(context.Background(), samples, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		ev := hyperspace.New(f, noise.NewBank(noise.RTW, seed, f.NumVars, f.NumClauses()))
		var w stats.Welford
		for i := uint64(0); i < samples; i++ {
			w.Add(ev.StepAt(i).S)
		}
		if r.Stats.Samples != samples {
			t.Fatalf("formula %d: %d samples, want %d", fi, r.Stats.Samples, samples)
		}
		if sat := w.Mean() > 4*w.StdErr(); (r.Status == solver.StatusSat) != sat {
			t.Errorf("formula %d: wide %v vs float z > 4 = %v", fi, r.Status, sat)
		}
		if math.Abs(r.Stats.Mean-w.Mean()) > 1e-9*(1+math.Abs(w.Mean())) {
			t.Errorf("formula %d: mean %v vs %v", fi, r.Stats.Mean, w.Mean())
		}
		if math.Abs(r.Stats.StdErr-w.StdErr()) > 1e-9*(1+w.StdErr()) {
			t.Errorf("formula %d: stderr %v vs %v", fi, r.Stats.StdErr, w.StdErr())
		}
	}
}

// TestCheckBlockSizeNeverChangesVerdict pins the wide kernel's batch
// size: any block size draws the same samples and the moments are
// exact sums, so the whole Stats block must be identical.
func TestCheckBlockSizeNeverChangesVerdict(t *testing.T) {
	narrow, wide := widened()
	for _, f := range []*cnf.Formula{gen.PaperSAT(), gen.PaperUNSAT(), narrow, wide} {
		var want solver.Result
		for i, k := range []int{0, 1, 16, 100} {
			e, err := New(f, core.Options{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			e.wide = true
			e.wk.reset(f, 3)
			if k > 0 {
				e.wk.k = k
			}
			got, err := e.wk.check(context.Background(), 20_000, 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = got
			} else if got.Status != want.Status || got.Stats != want.Stats {
				t.Errorf("%s block=%d: %v %+v != %v %+v", f, k, got.Status, got.Stats, want.Status, want.Stats)
			}
		}
	}
}

// TestWideGolden pins the wide kernel's bits: 70 copies of (x1) need 71
// bits, and seed 1 at 50,000 samples must read exactly what the
// one-sample-per-call kernel read before the block fill.
func TestWideGolden(t *testing.T) {
	r := solve(t, repeat(cnf.FromClauses([]int{1}), 70), solver.Config{Seed: 1, MaxSamples: 50_000})
	if r.Status != solver.StatusSat || r.Stats.Samples != 50_000 ||
		r.Stats.Mean != 0.99608 || r.Stats.StdErr != 0.0044721463162393825 {
		t.Errorf("got %v %+v, want SAT over 50000 samples, mean 0.99608, stderr 0.0044721463162393825",
			r.Status, r.Stats)
	}
}

// TestWideKernelOpensSATLIBScale: uf8-scale geometry builds a wide
// engine, samples, honors cancellation, and returns an honest
// (UNKNOWN-gated) verdict through the registry.
func TestWideKernelOpensSATLIBScale(t *testing.T) {
	data, err := os.ReadFile("../../testdata/uf8-satlib.cnf")
	if err != nil {
		t.Fatal(err)
	}
	f, err := dimacs.ReadString(string(data))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(f, core.Options{Seed: 1})
	if err != nil {
		t.Fatalf("SATLIB-scale construction must succeed: %v", err)
	}
	if !eng.wide {
		t.Fatal("engine should have selected the wide kernel")
	}
	r, err := eng.wk.check(context.Background(), 5_000, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Samples != 5_000 {
		t.Fatalf("consumed %d samples, want 5000", r.Stats.Samples)
	}

	// Through the registry: a definitive-or-honest verdict, no error.
	if res := solve(t, f, solver.Config{MaxSamples: 2_000}); res.Status == solver.StatusUnsat {
		t.Fatalf("a 2k-sample run cannot certify UNSAT at n·m=192 (SNR gate): %+v", res)
	}

	// Cancellation: an expired deadline must surface promptly.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := eng.wk.check(ctx, 1<<40, 4, nil); err == nil {
		t.Fatal("cancellation must propagate out of the wide kernel")
	}
}
