package sbl

import (
	"testing"

	"repro/internal/gen"
)

// TestCarrierBankBlockBitIdentical checks the deterministic carrier
// bank against the hyperspace block contract: a k-sample block must
// equal k successive scalar steps sample for sample, so the batched
// observation loop reads exactly the DC component the scalar loop
// would.
func TestCarrierBankBlockBitIdentical(t *testing.T) {
	f := gen.PaperExample6()
	scalar, err := New(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	block, err := New(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var base uint64
	for _, k := range []int{1, 5, 64, 33} {
		out := make([]float64, k)
		block.ev.StepBlockAt(base, out)
		for s := 0; s < k; s++ {
			if want := scalar.ev.StepAt(base + uint64(s)).S; out[s] != want {
				t.Fatalf("block %d sample %d: StepBlockAt %v != StepAt %v", k, s, out[s], want)
			}
		}
		base += uint64(k)
	}
}

// TestCheckBlockSizeNeverChangesVerdict pins the cache-aware batch
// size contract at the Check level: the DC sum is accumulated in
// sample order regardless of batching, so Check results must be
// bit-identical for every block size.
func TestCheckBlockSizeNeverChangesVerdict(t *testing.T) {
	f := gen.PaperExample6()
	ref, err := New(f, Options{MaxSamples: 8192})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Check()
	for _, block := range []int{16, 100, 256} {
		e, err := New(f, Options{MaxSamples: 8192})
		if err != nil {
			t.Fatal(err)
		}
		e.block = block
		got := e.Check()
		if got != want {
			t.Errorf("block=%d: %+v != %+v", block, got, want)
		}
	}
}
