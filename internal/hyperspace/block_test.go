package hyperspace

import (
	"math"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/noise"
	"repro/internal/rng"
)

// allFamilies is every stochastic noise family the bank supports.
var allFamilies = []noise.Family{
	noise.UniformHalf, noise.UniformUnit, noise.Gaussian, noise.RTW, noise.Pulse,
}

// TestStepBlockBitIdenticalToStep is the block-kernel conformance test:
// for every noise family, StepBlockAt must reproduce the exact float64
// values of per-sample StepAt over the same streams — including with
// bindings applied and across uneven block sizes — so verdicts and
// replay determinism are untouched by the batched path.
func TestStepBlockBitIdenticalToStep(t *testing.T) {
	g := rng.New(7)
	formulas := []*cnf.Formula{
		gen.PaperSAT(),
		gen.PaperExample5(),
		gen.RandomKSAT(g, 6, 14, 3),
	}
	blocks := []int{1, 3, 16, 97, 256}
	for _, fam := range allFamilies {
		for fi, f := range formulas {
			n, m := f.NumVars, f.NumClauses()
			scalar := New(f, noise.NewBank(fam, 42, n, m))
			block := New(f, noise.NewBank(fam, 42, n, m))

			// Bind a couple of variables identically on both evaluators so
			// the reduced-tau branches are exercised too.
			scalar.Bind(1, cnf.True)
			block.Bind(1, cnf.True)
			if n > 2 {
				scalar.Bind(2, cnf.False)
				block.Bind(2, cnf.False)
			}

			var base uint64
			for _, k := range blocks {
				out := make([]float64, k)
				block.StepBlockAt(base, out)
				for s := 0; s < k; s++ {
					want := scalar.StepAt(base + uint64(s)).S
					if out[s] != want {
						t.Fatalf("family %v formula %d block %d sample %d: StepBlockAt %v != StepAt %v",
							fam, fi, k, s, out[s], want)
					}
				}
				base += uint64(k)
			}
		}
	}
}

// TestStepBlockInterleavesWithStep checks the stream contract: StepAt
// and StepBlockAt may alternate on one evaluator (sharing its scalar and
// block scratch) and still read the same per-source streams as an
// all-scalar run.
func TestStepBlockInterleavesWithStep(t *testing.T) {
	f := gen.PaperExample6()
	n, m := f.NumVars, f.NumClauses()
	ref := New(f, noise.NewBank(noise.UniformUnit, 9, n, m))
	mixed := New(f, noise.NewBank(noise.UniformUnit, 9, n, m))

	var got, want []float64
	var i uint64
	for round := 0; round < 5; round++ {
		buf := make([]float64, 4)
		for s := uint64(0); s <= uint64(len(buf)); s++ {
			want = append(want, ref.StepAt(i+s).S)
		}

		got = append(got, mixed.StepAt(i).S)
		mixed.StepBlockAt(i+1, buf)
		got = append(got, buf...)
		i += uint64(len(buf)) + 1
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: interleaved %v != scalar %v", i, got[i], want[i])
		}
	}
}

// TestStepBlockShrinkingBlocksReuseScratch covers the scratch-reuse path:
// a large block followed by smaller ones must stay bit-identical (the
// smaller block re-strides a prefix of the large allocation).
func TestStepBlockShrinkingBlocksReuseScratch(t *testing.T) {
	f := gen.PaperSAT()
	n, m := f.NumVars, f.NumClauses()
	scalar := New(f, noise.NewBank(noise.Gaussian, 3, n, m))
	block := New(f, noise.NewBank(noise.Gaussian, 3, n, m))
	var base uint64
	for _, k := range []int{128, 5, 64, 1, 128} {
		out := make([]float64, k)
		block.StepBlockAt(base, out)
		for s := 0; s < k; s++ {
			if want := scalar.StepAt(base + uint64(s)).S; out[s] != want {
				t.Fatalf("block %d sample %d: %v != %v", k, s, out[s], want)
			}
		}
		base += uint64(k)
	}
}

// TestStepBlockAtClaimsDisjointRanges pins the seekable contract the
// worker-invariant sampler stands on: several evaluators (sharing
// nothing but the seed) evaluating disjoint sample-index ranges out of
// order reproduce, bit for bit, one evaluator's sequential pass — for
// every noise family and for uneven range boundaries.
func TestStepBlockAtClaimsDisjointRanges(t *testing.T) {
	f := gen.PaperExample5()
	n, m := f.NumVars, f.NumClauses()
	const total = 200
	ranges := []struct{ base, k int }{
		{137, 63}, {0, 17}, {64, 73}, {17, 47},
	}
	for _, fam := range allFamilies {
		seq := New(f, noise.NewBank(fam, 23, n, m))
		want := make([]float64, total)
		seq.StepBlockAt(0, want)

		got := make([]float64, total)
		for _, r := range ranges {
			ev := New(f, noise.NewBank(fam, 23, n, m))
			ev.StepBlockAt(uint64(r.base), got[r.base:r.base+r.k])
		}
		for s := range want {
			if got[s] != want[s] {
				t.Fatalf("family %v: claimed-range sample %d = %v, sequential = %v",
					fam, s, got[s], want[s])
			}
		}
	}
}

// TestStepBlockAtReplaysRange pins replay: re-requesting a range after
// evaluating others on the same evaluator yields the identical samples,
// which is what a warm engine's next check relies on.
func TestStepBlockAtReplaysRange(t *testing.T) {
	f := gen.PaperSAT()
	n, m := f.NumVars, f.NumClauses()
	ev := New(f, noise.NewBank(noise.UniformUnit, 5, n, m))
	first := make([]float64, 32)
	ev.StepBlockAt(0, first)
	ev.StepBlockAt(32, make([]float64, 64))
	again := make([]float64, 32)
	ev.StepBlockAt(0, again)
	for s := range first {
		if first[s] != again[s] {
			t.Fatalf("replay of range [0, 32) diverged at sample %d", s)
		}
	}
}

// TestStepBlockAtOddGeometry pins the block path's bit-equality with
// the scalar kernel on the shapes the vector kernels find hardest: odd
// block lengths (which force the assembly's len&^3 prefix plus a
// portable tail of every residue) and stream bases that are not
// multiples of the vector width (so lanes straddle the counter
// arbitrarily). The scalar StepAt path never touches the row primitives,
// so on AVX2 hardware this pins AVX2-vs-scalar exactly; elsewhere it
// pins portable block-vs-scalar.
func TestStepBlockAtOddGeometry(t *testing.T) {
	g := rng.New(31)
	f := gen.RandomKSAT(g, 5, 11, 3)
	n, m := f.NumVars, f.NumClauses()
	bases := []uint64{0, 1, 2, 3, 5, 1021, 1 << 40}
	for _, fam := range allFamilies {
		scalar := New(f, noise.NewBank(fam, 77, n, m))
		block := New(f, noise.NewBank(fam, 77, n, m))
		for _, k := range []int{1, 3, 7, 17, 255} {
			out := make([]float64, k)
			for _, base := range bases {
				block.StepBlockAt(base, out)
				for s := 0; s < k; s++ {
					if want := scalar.StepAt(base + uint64(s)).S; out[s] != want {
						t.Fatalf("family %v k=%d base=%d sample %d: StepBlockAt %v != StepAt %v",
							fam, k, base, s, out[s], want)
					}
				}
			}
		}
	}
}

// TestStepBlockAtOddGeometryWithBindings repeats the odd-shape sweep
// with partial bindings, covering the tau branch kernels (select
// positive, select negative, sum) on unaligned tails.
func TestStepBlockAtOddGeometryWithBindings(t *testing.T) {
	g := rng.New(33)
	f := gen.RandomKSAT(g, 5, 11, 3)
	n, m := f.NumVars, f.NumClauses()
	for _, fam := range allFamilies {
		scalar := New(f, noise.NewBank(fam, 78, n, m))
		block := New(f, noise.NewBank(fam, 78, n, m))
		for _, e := range []*Evaluator{scalar, block} {
			e.Bind(1, cnf.True)
			e.Bind(3, cnf.False)
		}
		for _, k := range []int{3, 7, 17} {
			out := make([]float64, k)
			for _, base := range []uint64{1, 6, 255} {
				block.StepBlockAt(base, out)
				for s := 0; s < k; s++ {
					if want := scalar.StepAt(base + uint64(s)).S; out[s] != want {
						t.Fatalf("family %v k=%d base=%d sample %d: StepBlockAt %v != StepAt %v",
							fam, k, base, s, out[s], want)
					}
				}
			}
		}
	}
}

// TestGoldenUniformUnitStream pins the float stream the default mc
// family consumes, as bit patterns: UniformUnit fills (lo = -√3,
// span = 2√3) of five samples at a few (seed, source, index) points,
// four from the vector kernel and one from the tail on AVX2 hardware,
// and StepBlockAt's S values on the paper's satisfiable example. The
// rng goldens pin only words and [0, 1) uniforms; these catch a change
// in rounding (a fused multiply-add in a reference loop, a reordered
// kernel) that would shift every sampled verdict on one architecture.
func TestGoldenUniformUnitStream(t *testing.T) {
	fills := []struct {
		seed, src, idx uint64
		bits           [5]uint64
	}{
		{0x0, 0x0, 0x0, [5]uint64{0x3fd3b900219cd370, 0x3ff4769c6fed3f54, 0xbfaac152a7ab16e0, 0x3fd65fb723bdd2a0, 0xbff2fb0c8f0c6c16}},
		{0x1, 0x7, 0x3, [5]uint64{0x3ff458d098e52518, 0x3fd9d7eb27de0880, 0xbff26e37a34c9516, 0x3ff47c1f6762d916, 0x3fe1de31ad506de4}},
		{0x2a, 0x3, 0xf423f, [5]uint64{0x3ff8bc7d115a299e, 0xbfe3bc33d5e997b8, 0xbff7f33facf8b055, 0x3fb7bab5a0229020, 0xbff179dabd668af5}},
		{0xdeadbeef, 0xff, 0x10000000000, [5]uint64{0xbff7fbe97e3b5026, 0x3ff14b78a424c0a8, 0xbfade66b92f147a0, 0x3ff876e87dc63422, 0xbff8028dc5e61fac}},
	}
	for _, tc := range fills {
		dst := make([]float64, len(tc.bits))
		rng.FillUniformAt(rng.StreamBase(tc.seed, tc.src), tc.idx, dst, -math.Sqrt(3), 2*math.Sqrt(3))
		for s, want := range tc.bits {
			if got := math.Float64bits(dst[s]); got != want {
				t.Errorf("FillUniformAt(seed %#x, src %#x, index %#x) sample %d = %#016x, want %#016x",
					tc.seed, tc.src, tc.idx, s, got, want)
			}
		}
	}

	f := gen.PaperSAT()
	ev := New(f, noise.NewBank(noise.UniformUnit, 2012, f.NumVars, f.NumClauses()))
	blocks := []struct {
		base uint64
		bits [6]uint64
	}{
		{0, [6]uint64{0xbf3a3f603b33ed2c, 0xc0017d3872a13c49, 0x4004fb452fdde076, 0xbfe82fda17779e5a, 0xbf51b72d8014bf95, 0xc00d11740ce79704}},
		{1<<33 + 1, [6]uint64{0xbe753c3a9d3d4268, 0xbf901e7b611032be, 0x3f7804f31c0ad3db, 0x3f94d1f1f91b6e44, 0x3f730a1280a7456f, 0x40061d2054c7c52d}},
	}
	out := make([]float64, 6)
	for _, blk := range blocks {
		ev.StepBlockAt(blk.base, out)
		for s, want := range blk.bits {
			if got := math.Float64bits(out[s]); got != want {
				t.Errorf("PaperSAT StepBlockAt(base %d) sample %d = %#016x (%v), want %#016x",
					blk.base, s, got, out[s], want)
			}
		}
	}
}
