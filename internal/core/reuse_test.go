package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cnf"
	"repro/internal/noise"
	"repro/internal/solver"
)

// TestResetIsResultIdenticalToFreshEngine pins the warm-path contract:
// an engine re-targeted with Reset must produce exactly the Result a
// freshly constructed engine would, both when the geometry matches
// (banks and evaluators reused) and when it changes (workers dropped).
func TestResetIsResultIdenticalToFreshEngine(t *testing.T) {
	opts := Options{Family: noise.UniformUnit, Seed: 11, MaxSamples: 200_000, Workers: 2}
	f1 := cnf.FromClauses([]int{1, 2}, []int{-1, -2})              // 2x2
	f2 := cnf.FromClauses([]int{1, -2}, []int{2, 1})               // same geometry
	f3 := cnf.FromClauses([]int{1, 2, 3}, []int{-1, -3}, []int{2}) // different geometry

	warm, err := NewEngine(f1, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm.Check()

	for _, f := range []*cnf.Formula{f2, f3, f1} {
		if err := warm.Reset(f); err != nil {
			t.Fatal(err)
		}
		got := warm.Check()
		fresh, err := NewEngine(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := fresh.Check()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("warm result differs from fresh on %s:\nwarm  %+v\nfresh %+v", f, got, want)
		}
	}
}

func TestResetRejectsInvalidFormulas(t *testing.T) {
	eng, err := NewEngine(cnf.FromClauses([]int{1}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Reset(cnf.New(0)); err == nil {
		t.Error("Reset must reject a zero-variable formula")
	}
	bad := &cnf.Formula{NumVars: 1, Clauses: []cnf.Clause{{cnf.Pos(5)}}}
	if err := eng.Reset(bad); err == nil {
		t.Error("Reset must reject out-of-range literals")
	}
	// The engine must still work after rejected Resets.
	if r := eng.Check(); !r.Satisfiable {
		t.Error("engine unusable after rejected Reset")
	}
}

// TestMCSolverWarmReuseMatchesCold drives the registry adapter the way
// a solve service does — one Solver instance, many formulas — and
// checks verdict/stats equality against cold per-formula construction.
func TestMCSolverWarmReuseMatchesCold(t *testing.T) {
	formulas := []*cnf.Formula{
		cnf.FromClauses([]int{1, 2}, []int{1, -2}, []int{-1, 2}, []int{1, 2}),   // paper SAT
		cnf.FromClauses([]int{1, 2}, []int{1, -2}, []int{-1, 2}, []int{-1, -2}), // paper UNSAT
		cnf.FromClauses([]int{1}, []int{-1}),                                    // different geometry
	}
	warm, err := solver.New("mc", solver.WithSeed(3), solver.WithMaxSamples(300_000))
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range formulas {
		got, err := warm.Solve(context.Background(), f)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := solver.New("mc", solver.WithSeed(3), solver.WithMaxSamples(300_000))
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.Solve(context.Background(), f)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status || got.Stats != want.Stats {
			t.Errorf("formula %d: warm (%v, %+v) vs cold (%v, %+v)",
				i, got.Status, got.Stats, want.Status, want.Stats)
		}
	}
}

// countSamples returns a context whose progress hook appends every
// reported sample count to *counts.
func countSamples(counts *[]int64) context.Context {
	return solver.ContextWithProgress(context.Background(),
		func(st solver.Stats) { *counts = append(*counts, st.Samples) })
}

// TestProgressReportsAtRoundBoundaries asserts the context-carried
// progress hook fires with monotonically growing sample counts on a
// bare engine check, and sees snapshots through the registry adapter.
func TestProgressReportsAtRoundBoundaries(t *testing.T) {
	f := cnf.FromClauses([]int{1, 2}, []int{1, -2}, []int{-1, 2}, []int{-1, -2})
	var counts []int64
	eng, err := NewEngine(f, Options{
		Family: noise.UniformUnit, MaxSamples: 200_000, CheckEvery: 50_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CheckCtx(countSamples(&counts)); err != nil {
		t.Fatal(err)
	}
	if len(counts) == 0 {
		t.Fatal("progress hook never fired")
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] <= counts[i-1] {
			t.Fatalf("sample counts not increasing: %v", counts)
		}
	}

	var snaps []solver.Stats
	s, err := solver.New("mc", solver.WithMaxSamples(200_000))
	if err != nil {
		t.Fatal(err)
	}
	ctx := solver.ContextWithProgress(context.Background(),
		func(st solver.Stats) { snaps = append(snaps, st) })
	if _, err := s.Solve(ctx, f); err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("context progress hook never fired through the registry adapter")
	}
	if snaps[len(snaps)-1].Samples == 0 {
		t.Fatalf("snapshot carries no sample count: %+v", snaps)
	}
}

// TestProgressUnderChunkClaimingSampler pins the hook's contract under
// the chunk-claiming sampler, whose workers race to claim chunks
// within a round: the hook must fire only at merged round boundaries
// (every CheckEvery samples exactly, after the coordinator folds the
// per-chunk partials), so the observed sample counts are monotonically
// nondecreasing — in fact identical — for any worker count.
func TestProgressUnderChunkClaimingSampler(t *testing.T) {
	// UNSAT 2-var contradiction: the mean never crosses the line, so the
	// engine burns the whole budget — a fixed MaxSamples/CheckEvery
	// ratio worth of rounds, for every worker count.
	f := cnf.FromClauses([]int{1, 2}, []int{1, -2}, []int{-1, 2}, []int{-1, -2})
	const checkEvery, maxSamples = 25_000, 100_000

	var want []int64
	for _, workers := range []int{1, 3, 8} {
		var counts []int64
		eng, err := NewEngine(f, Options{
			Family:     noise.UniformUnit,
			Workers:    workers,
			MaxSamples: maxSamples,
			CheckEvery: checkEvery,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.CheckCtx(countSamples(&counts)); err != nil {
			t.Fatal(err)
		}
		if len(counts) == 0 {
			t.Fatalf("workers=%d: progress hook never fired", workers)
		}
		for i, n := range counts {
			if i > 0 && n < counts[i-1] {
				t.Fatalf("workers=%d: sample counts regressed: %v", workers, counts)
			}
			if n%checkEvery != 0 {
				t.Errorf("workers=%d: count %d is not a merged round boundary (CheckEvery %d): %v",
					workers, n, int64(checkEvery), counts)
			}
		}
		if want == nil {
			want = counts
			continue
		}
		if len(counts) != len(want) {
			t.Fatalf("workers=%d: %d progress rounds, want %d (counts %v vs %v)",
				workers, len(counts), len(want), counts, want)
		}
		for i := range counts {
			if counts[i] != want[i] {
				t.Fatalf("workers=%d: round %d reported %d samples, workers=1 reported %d",
					workers, i, counts[i], want[i])
			}
		}
	}
}
