// Warm==cold conformance for the engine lease pool: a solver leased
// warm (banks, evaluators, and block buffers reused through Reset)
// must return bit-for-bit the verdict, model, and effort accounting a
// cold construction would. This is the correctness contract that lets
// every layer — pipeline components, portfolio members, service
// workers — lease instead of build without changing a single result.
package repro

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cnf"
	"repro/internal/enginepool"
	"repro/internal/obs"
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
// exactly the 53 bits rtw evaluates on mc's float sampler, and a second
// draw of it with its first clause widened to four literals: 54 bits at
// the same (n, m), which rtw runs on its exact wide kernel.
func rtwBoundaryPair() (narrow, wide *Formula) {
	narrow, wide = RandomKSAT(5, 5, 8, 3), RandomKSAT(5, 5, 8, 3)
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

// TestPoolWarmAcrossSeeds pins the seedless pool key: an engine leased
// and solved under seed 5, then leased again under seed 6, comes back
// warm and must return bit-for-bit what a cold construction under seed
// 6 does (mc, mc's Algorithm 2 with a sampled residual, rtw on both
// kernels, sbl). mc also leases again under Seed 0, which the registry
// defaults to 1, so the warm lease must not run under 0.
func TestPoolWarmAcrossSeeds(t *testing.T) {
	for _, tc := range poolConformanceCases() {
		var next []uint64
		switch tc.name {
		case "mc-sat":
			next = []uint64{6, 0}
		case "mc-model-residual", "rtw-sat", "rtw-wide", "sbl-ex6":
			next = []uint64{6}
		}
		for _, seed := range next {
			t.Run(fmt.Sprintf("%s-seed-%d", tc.name, seed), func(t *testing.T) {
				pool := enginepool.New(4)
				first := poolSolve(t, pool, tc.engine, tc.cfg, tc.f)
				cfg := tc.cfg
				cfg.Seed = seed
				lease, err := pool.Acquire(tc.engine, cfg, tc.f)
				if err != nil {
					t.Fatal(err)
				}
				defer lease.Release()
				if !lease.Warm() {
					t.Fatal("lease under a new seed came back cold")
				}
				warm, err := lease.Solve(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				cold := registrySolve(t, tc.engine, cfg, tc.f)
				if warm.Status != cold.Status || warm.Stats != cold.Stats ||
					!reflect.DeepEqual(warm.Assignment, cold.Assignment) {
					t.Errorf("warm: %v %+v %v\ncold: %v %+v %v",
						warm.Status, warm.Stats, warm.Assignment, cold.Status, cold.Stats, cold.Assignment)
				}
				// sbl's carriers are deterministic; every other row must
				// tell the seeds apart, or it could not catch a lease that
				// kept seed 5.
				if tc.engine != "sbl" && first.Stats == cold.Stats {
					t.Errorf("seeds 5 and %d drew the same stats %+v", seed, cold.Stats)
				}
			})
		}
	}
}

// TestStatelessShellsKeyGeometryFree pins where the warmth of the
// stateless shells lives. A pre(...) or portfolio lease is never warm
// and never idles in the pool: the shell holds nothing to reuse, so
// every Acquire builds one. The engines a shell leases from the shared
// pool are what warm up: the second pre(mc) solve's component leases
// its mc warm. A bank-pinning engine like mc leased across shapes
// stays cold, since its warmth is geometry-sized.
func TestStatelessShellsKeyGeometryFree(t *testing.T) {
	// rand8-hard survives preprocessing as one (8, 25) component, so
	// pre(mc) leases an mc for it.
	f := readTestdata(t, "testdata/rand8-hard.cnf")
	cfg := solver.Config{Seed: 5, MaxSamples: 20_000}

	for _, expr := range []string{"pre(mc)", "portfolio", "pre(portfolio)"} {
		t.Run(expr, func(t *testing.T) {
			pool := enginepool.New(4)
			var componentWarm []string
			for i := 0; i < 2; i++ {
				l, err := pool.Acquire(expr, cfg, f)
				if err != nil {
					t.Fatal(err)
				}
				if l.Warm() {
					t.Fatalf("lease %d of %s came back warm", i, expr)
				}
				tr := obs.NewTrace("")
				root := tr.Root("solve")
				_, err = l.Solve(obs.ContextWithSpan(context.Background(), root))
				root.Finish()
				l.Release()
				if err != nil {
					t.Fatal(err)
				}
				tr.JSON().Walk(func(sp *obs.SpanJSON) {
					if sp.Name != "pipeline.component" {
						return
					}
					for _, a := range sp.Attrs {
						if a.Key == "warm" {
							componentWarm = append(componentWarm, a.Val)
						}
					}
				})
			}
			if st := pool.Stats(); st.Hits != 0 || st.Misses != 2 || st.Size != 0 {
				t.Errorf("%s: %d hits, %d misses, %d idle; want 0, 2, 0", expr, st.Hits, st.Misses, st.Size)
			}
			if expr == "pre(mc)" && (len(componentWarm) != 2 || componentWarm[1] != "true") {
				t.Errorf("pre(mc) component leases warm = %v, want the second true", componentWarm)
			}
		})
	}

	t.Run("mc-stays-geometry-keyed", func(t *testing.T) {
		pool := enginepool.New(4)
		small := PaperSAT()
		big := DisjointUnion(PaperExample6(), PaperExample6(), PaperExample6())
		for i, g := range []*Formula{small, big} {
			l, err := pool.Acquire("mc", cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			if l.Warm() {
				t.Fatalf("lease %d: mc re-leased warm across geometries; bank state must stay geometry-keyed", i)
			}
			if _, err := l.Solve(context.Background()); err != nil {
				t.Fatal(err)
			}
			l.Release()
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
