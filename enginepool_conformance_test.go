// Warm==cold conformance for the engine lease pool: a solver leased
// warm (banks, evaluators, and block buffers reused through Reset)
// must return bit-for-bit the verdict, model, and effort accounting a
// cold construction would. This is the correctness contract that lets
// every layer — pipeline components, portfolio members, service
// workers — lease instead of build without changing a single result.
package repro

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cnf"
	"repro/internal/enginepool"
	"repro/internal/solver"
)

// poolConformanceCases pairs engine expressions with instances whose
// pooled solves must be deterministic: single-threaded stochastic
// engines, the model-recovering mc path, and the preprocess pipeline
// (whose component fan-out leases inner engines itself).
func poolConformanceCases() []struct {
	name   string
	engine string
	cfg    solver.Config
	f      *Formula
} {
	base := solver.Config{Seed: 5, MaxSamples: 1_000_000}
	model := base
	model.FindModel = true
	// 60 copies of (x1) need 61 bits, so rtw runs its big.Int kernel,
	// which assembles nearly every sample of this formula: a smaller
	// budget keeps the row fast.
	wide := base
	wide.MaxSamples = 100_000
	x1 := NewFormula(1)
	for range 60 {
		x1.Add(1)
	}
	return []struct {
		name   string
		engine string
		cfg    solver.Config
		f      *Formula
	}{
		{"mc-sat", "mc", base, PaperSAT()},
		{"mc-unsat", "mc", base, PaperUNSAT()},
		{"mc-model", "mc", model, PaperSAT()},
		// Binding x1 = 1 leaves the residual (x2+!x3): a sampled
		// reduced check on a scratch bank.
		{"mc-model-residual", "mc", model,
			FromClauses([]int{1, 2, 3}, []int{-1, 2, -3}, []int{1, -2, 3})},
		{"rtw-sat", "rtw", base, PaperSAT()},
		{"rtw-ex6", "rtw", base, PaperExample6()},
		{"rtw-wide", "rtw", wide, x1},
		{"sbl-ex6", "sbl", base, PaperExample6()},
		{"pre-mc-sat", "pre(mc)", base, PaperSAT()},
		{"pre-mc-disjoint", "pre(mc)", base,
			DisjointUnion(PaperExample6(), PaperExample6(), PaperExample6())},
	}
}

// TestPoolWarmEqualsCold drives each case three times — once cold
// through a private pool, once warm through the same pool, and once
// through a plain registry construction — and requires identical
// verdicts, models, and sample counts from all three.
func TestPoolWarmEqualsCold(t *testing.T) {
	for _, tc := range poolConformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			pool := enginepool.New(4)

			cold := poolSolve(t, pool, tc.engine, tc.cfg, tc.f)
			warm := poolSolve(t, pool, tc.engine, tc.cfg, tc.f)
			direct := registrySolve(t, tc.engine, tc.cfg, tc.f)

			for _, cmp := range []struct {
				label string
				got   Result
			}{{"warm-vs-cold", warm}, {"direct-vs-cold", direct}} {
				if cmp.got.Status != cold.Status {
					t.Errorf("%s: status %v vs %v", cmp.label, cmp.got.Status, cold.Status)
				}
				if cmp.got.Stats != cold.Stats {
					t.Errorf("%s: stats\n%+v\nvs\n%+v", cmp.label, cmp.got.Stats, cold.Stats)
				}
				if !reflect.DeepEqual(cmp.got.Assignment, cold.Assignment) {
					t.Errorf("%s: models differ: %v vs %v",
						cmp.label, cmp.got.Assignment, cold.Assignment)
				}
			}
			if cold.Status == StatusSat && cold.Assignment != nil &&
				!cold.Assignment.Satisfies(tc.f) {
				t.Error("model does not satisfy the instance")
			}
		})
	}
}

// rtwBoundaryPair returns a random 3-SAT formula over (5, 8), whose |S_N| bound is
// exactly the 53 bits rtw evaluates on mc's float sampler, and a copy
// with its first clause widened to four literals: 54 bits at the same
// (n, m), which rtw runs on its exact wide kernel.
func rtwBoundaryPair() (narrow, wide *Formula) {
	narrow = RandomKSAT(5, 5, 8, 3)
	wide = narrow.Clone()
	for v := cnf.Var(1); ; v++ {
		if !slices.ContainsFunc(wide.Clauses[0], func(l Lit) bool { return l.Var() == v }) {
			wide.Clauses[0] = append(wide.Clauses[0], cnf.Pos(v))
			return narrow, wide
		}
	}
}

// TestPoolWarmCrossesRTWKernelBoundary leases one rtw engine through
// formulas of one (n, m) that cross its kernel boundary both ways.
// Every warm solve must equal a cold pool solve and a direct registry
// construction.
func TestPoolWarmCrossesRTWKernelBoundary(t *testing.T) {
	narrow, wide := rtwBoundaryPair()
	// 120,000 is not a whole number of mc's 50,000-sample rounds, so the
	// sample count alone tells the kernels apart.
	cfg := solver.Config{Seed: 5, MaxSamples: 120_000}
	pool := enginepool.New(4)
	for i, f := range []*Formula{narrow, wide, narrow, wide} {
		lease, err := pool.Acquire("rtw", cfg, f)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && !lease.Warm() {
			t.Fatalf("solve %d: lease came back cold at the same (n, m)", i)
		}
		warm, err := lease.Solve(context.Background())
		lease.Release()
		if err != nil {
			t.Fatal(err)
		}
		cold := poolSolve(t, enginepool.New(4), "rtw", cfg, f)
		direct := registrySolve(t, "rtw", cfg, f)
		for _, got := range []Result{cold, direct} {
			if got.Status != warm.Status || got.Stats != warm.Stats {
				t.Errorf("solve %d: warm %v %+v vs %v %+v", i, warm.Status, warm.Stats, got.Status, got.Stats)
			}
		}
	}
}

// TestPoolPortfolioWarmVerdicts covers portfolio lineups: the race
// winner (and therefore the stats) is timing-dependent, but the
// verdict is not — warm leases must preserve it, and every SAT model
// must satisfy the instance.
func TestPoolPortfolioWarmVerdicts(t *testing.T) {
	cfg := solver.Config{Seed: 5, MaxSamples: 1_000_000,
		Members: []string{"cdcl", "mc", "walksat"}}
	pool := enginepool.New(4)
	for _, tc := range []struct {
		name string
		f    *Formula
		want Status
	}{
		{"sat", PaperSAT(), StatusSat},
		{"unsat", PaperUNSAT(), StatusUnsat},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i, label := range []string{"cold", "warm", "warm2"} {
				r := poolSolve(t, pool, "portfolio", cfg, tc.f)
				if r.Status != tc.want {
					t.Errorf("%s (run %d): got %v, want %v", label, i, r.Status, tc.want)
				}
				if r.Status == StatusSat && r.Assignment != nil && !r.Assignment.Satisfies(tc.f) {
					t.Errorf("%s: model does not satisfy", label)
				}
			}
		})
	}
}

// TestPoolMixedGeometryTrafficStaysSound interleaves three geometry
// classes through one small pool so leases are reset, reused, and
// evicted mid-stream, and checks every verdict against the exact
// oracle. This is the mixed-traffic pattern a resident service sees.
func TestPoolMixedGeometryTrafficStaysSound(t *testing.T) {
	pool := enginepool.New(2) // force evictions across the three classes
	cfg := solver.Config{Seed: 9, MaxSamples: 1_000_000}
	instances := []*Formula{PaperSAT(), PaperExample6(), PaperExample7()}
	first := make(map[int]Result)
	for round := 0; round < 3; round++ {
		for i, f := range instances {
			r := poolSolve(t, pool, "mc", cfg, f)
			if want := ExactCheck(f); (r.Status == StatusSat) != want && r.Status.Definitive() {
				t.Fatalf("round %d instance %d: verdict %v, oracle %v", round, i, r.Status, want)
			}
			if round == 0 {
				first[i] = r
				continue
			}
			if r.Status != first[i].Status || r.Stats != first[i].Stats {
				t.Errorf("round %d instance %d drifted: %+v vs %+v",
					round, i, r.Stats, first[i].Stats)
			}
		}
	}
}

// TestStatelessShellsKeyGeometryFree pins the geometry-free pool
// keying of stateless meta shells: a pre(...) or portfolio instance
// released after serving one formula shape comes back warm for a
// completely different shape (one idle shell serves every (n, m)),
// while a bank-pinning engine like mc leased across shapes stays cold
// — its warmth is geometry-sized and must not be shared.
func TestStatelessShellsKeyGeometryFree(t *testing.T) {
	small := PaperSAT()
	big := DisjointUnion(PaperExample6(), PaperExample6(), PaperExample6())
	if small.NumVars == big.NumVars && small.NumClauses() == big.NumClauses() {
		t.Fatal("test needs two distinct geometries")
	}
	cfg := solver.Config{Seed: 5, MaxSamples: 1_000_000}

	crossGeometryLease := func(t *testing.T, expr string) *enginepool.Lease {
		t.Helper()
		pool := enginepool.New(4)
		l1, err := pool.Acquire(expr, cfg, small)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l1.Solve(context.Background()); err != nil {
			t.Fatal(err)
		}
		l1.Release()
		l2, err := pool.Acquire(expr, cfg, big)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(l2.Release)
		return l2
	}

	for _, expr := range []string{"pre(mc)", "portfolio", "pre(portfolio)"} {
		t.Run(expr, func(t *testing.T) {
			l := crossGeometryLease(t, expr)
			if !l.Warm() {
				t.Fatalf("%s re-leased cold across geometries; stateless shells must key (n,m)-free", expr)
			}
			r, err := l.Solve(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if r.Status != StatusSat {
				t.Fatalf("warm cross-geometry solve: %v, want SAT", r.Status)
			}
		})
	}

	t.Run("mc-stays-geometry-keyed", func(t *testing.T) {
		if l := crossGeometryLease(t, "mc"); l.Warm() {
			t.Fatal("mc re-leased warm across geometries; bank state must stay geometry-keyed")
		}
	})
}

func poolSolve(t *testing.T, pool *enginepool.Pool, engine string, cfg solver.Config, f *Formula) Result {
	t.Helper()
	lease, err := pool.Acquire(engine, cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	r, err := lease.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func registrySolve(t *testing.T, engine string, cfg solver.Config, f *Formula) Result {
	t.Helper()
	s, err := NewWith(engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Solve(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
