package core

import (
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/rng"
)

// TestCheckSeedDistinctAcrossGrid verifies the stream-independence
// contract of the seed derivation: under one engine seed, every check
// sequence must map to a distinct noise seed. The XOR-of-products
// mixing this replaced collided systematically on such grids, which
// silently made distinct checks replay correlated noise.
func TestCheckSeedDistinctAcrossGrid(t *testing.T) {
	const seqs = 1 << 15
	for _, seed := range []uint64{0, 1, 42, ^uint64(0)} {
		seen := make(map[uint64]uint64, seqs)
		for seq := uint64(0); seq < seqs; seq++ {
			k := checkSeed(seed, seq)
			if prev, dup := seen[k]; dup {
				t.Fatalf("seed %d: seq %d collides with seq %d: key %#x", seed, seq, prev, k)
			}
			seen[k] = seq
		}
	}
}

// TestCheckSeedRolesNotInterchangeable guards the derivation chain's
// ordering: a check's sequence number and a bank source's index are
// folded in at different links (StreamBase(checkSeed(seed, seq), src)),
// so swapping the two identifiers must select a different stream.
func TestCheckSeedRolesNotInterchangeable(t *testing.T) {
	if rng.StreamBase(checkSeed(7, 3), 5) == rng.StreamBase(checkSeed(7, 5), 3) {
		t.Fatal("the stream base is symmetric in (check sequence, source)")
	}
}

// TestCheckSeedV2WorkerFree pins the contract the worker-count
// invariance stands on: within one check every worker's bank is seeded
// identically (workers partition the sample-index axis, not the
// streams), while distinct checks still draw distinct streams.
func TestCheckSeedV2WorkerFree(t *testing.T) {
	eng, err := NewEngine(gen.PaperSAT(), Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	bound := cnf.NewAssignment(eng.f.NumVars)
	sample := func(seq uint64, w int) float64 {
		return eng.evaluator(bound, seq, w).StepAt(7).S
	}
	for seq := uint64(1); seq < 4; seq++ {
		base := sample(seq, 0)
		for w := 1; w < 9; w++ {
			if got := sample(seq, w); got != base {
				t.Fatalf("seq=%d worker %d sample %v, worker 0 sample %v", seq, w, got, base)
			}
		}
		if next := sample(seq+1, 0); next == base {
			t.Fatalf("checks %d and %d drew the same sample", seq, seq+1)
		}
	}
}
