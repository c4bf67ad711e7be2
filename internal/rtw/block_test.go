package rtw

import (
	"context"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/rng"
)

// TestStepBlockEqualsStep is the integer block-kernel conformance test:
// StepBlock must reproduce Step's exact int64 values across uneven block
// sizes and with bindings applied.
func TestStepBlockEqualsStep(t *testing.T) {
	g := rng.New(5)
	for _, f := range []*cnf.Formula{
		gen.PaperExample6(), gen.PaperSAT(), gen.RandomKSAT(g, 5, 8, 3),
	} {
		scalar, err := New(f, 11)
		if err != nil {
			t.Fatal(err)
		}
		block, err := New(f, 11)
		if err != nil {
			t.Fatal(err)
		}
		scalar.Bind(1, cnf.True)
		block.Bind(1, cnf.True)
		for _, k := range []int{1, 7, 64, 256, 33} {
			out := make([]int64, k)
			block.StepBlock(out)
			for s := 0; s < k; s++ {
				if want := scalar.Step(); out[s] != want {
					t.Fatalf("%s block %d sample %d: StepBlock %d != Step %d",
						f, k, s, out[s], want)
				}
			}
		}
	}
}

// TestCheckCtxMatchesScalarAccumulation pins the block CheckCtx to the
// verdict and sample count of a straightforward scalar run over the
// same stream.
func TestCheckCtxMatchesScalarAccumulation(t *testing.T) {
	f := gen.PaperSAT()
	blockEng, err := New(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	scalarEng, err := New(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 20k samples: the streams at this seed need that many to clear
	// theta=4.
	const samples = 20_000
	r, err := blockEng.CheckCtx(context.Background(), samples, 4)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for i := 0; i < samples; i++ {
		sum += scalarEng.Step()
	}
	if r.Samples != samples {
		t.Fatalf("consumed %d samples, want %d", r.Samples, samples)
	}
	// The integer sample stream is identical, so the mean must agree up
	// to the (tiny) difference between blocked and sequential float
	// accumulation.
	want := float64(sum) / samples
	if diff := r.Mean - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("block mean %v vs scalar mean %v", r.Mean, want)
	}
	if !r.Satisfiable {
		t.Fatal("PaperSAT must test satisfiable")
	}
}

// TestCheckBlockSizeNeverChangesVerdict pins the cache-aware batch
// size contract at the Check level: any block size draws the same
// integer sample stream, so the verdict (and sample count) must be
// invariant; only the Welford merge order — and so at most ulps of the
// float mean — may differ.
func TestCheckBlockSizeNeverChangesVerdict(t *testing.T) {
	g := rng.New(17)
	for _, f := range []*cnf.Formula{
		gen.PaperSAT(), gen.PaperUNSAT(), gen.RandomKSAT(g, 5, 8, 3),
	} {
		ref, err := New(f, 3)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Check(20_000, 4)
		for _, block := range []int{16, 100, 256} {
			e, err := New(f, 3)
			if err != nil {
				t.Fatal(err)
			}
			e.block = block
			got := e.Check(20_000, 4)
			if got.Satisfiable != want.Satisfiable || got.Samples != want.Samples {
				t.Errorf("%s block=%d: (%v, %d samples) != (%v, %d samples)",
					f, block, got.Satisfiable, got.Samples, want.Satisfiable, want.Samples)
			}
		}
	}
}
