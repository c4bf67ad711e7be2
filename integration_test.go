// Cross-engine integration tests: every satisfiability engine in the
// repository must agree on a randomized sweep of small instances, with
// the exhaustive model counter as the oracle. This is the repository's
// strongest end-to-end consistency check, crossing package boundaries:
// cnf -> gen -> {core exact, rtw, sbl, analog, dpll, cdcl, hybrid} and
// dimacs round-tripping in the middle.
package repro

import (
	"context"
	"strings"
	"testing"

	"repro/internal/analog"
	"repro/internal/cdcl"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/count"
	"repro/internal/dpll"
	"repro/internal/gen"
	"repro/internal/hybrid"
	"repro/internal/noise"
	"repro/internal/rng"
	"repro/internal/sbl"
)

func TestIntegrationEngineAgreementSweep(t *testing.T) {
	g := rng.New(2024)
	for trial := 0; trial < 50; trial++ {
		n := 1 + g.Intn(6)
		m := 1 + g.Intn(3*n)
		k := 1 + g.Intn(min(3, n))
		f := gen.RandomKSAT(g, n, m, k)

		// Round-trip through DIMACS first: the engines must see an
		// identical instance after serialization.
		var sb strings.Builder
		if err := WriteDIMACS(&sb, f, "integration sweep"); err != nil {
			t.Fatal(err)
		}
		f2, err := ReadDIMACS(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		if f2.String() != f.String() {
			t.Fatalf("trial %d: DIMACS round trip changed the formula", trial)
		}

		oracle := count.Brute(f2) > 0

		if got := core.ExactCheck(f2); got != oracle {
			t.Errorf("trial %d: exact NBL = %v, oracle = %v\n%s", trial, got, oracle, f2)
		}
		if _, got := dpll.Solve(f2); got != oracle {
			t.Errorf("trial %d: DPLL = %v, oracle = %v", trial, got, oracle)
		}
		if _, got := cdcl.Solve(f2); got != oracle {
			t.Errorf("trial %d: CDCL = %v, oracle = %v", trial, got, oracle)
		}
		if got := hybrid.SolveExact(f2).Satisfiable; got != oracle {
			t.Errorf("trial %d: hybrid = %v, oracle = %v", trial, got, oracle)
		}
	}
}

func TestIntegrationStochasticEnginesOnDecisiveInstances(t *testing.T) {
	// The finite-sample engines (core MC, RTW, SBL, analog) are checked
	// on instances small enough that their SNR makes the decision
	// reliable at a test-friendly budget (nm <= 6).
	g := rng.New(77)
	for trial := 0; trial < 6; trial++ {
		n := 1 + g.Intn(3)
		m := 1 + g.Intn(2)
		f := gen.RandomKSAT(g, n, m, 1+g.Intn(min(2, n)))
		oracle := count.Brute(f) > 0
		seed := uint64(100 + trial)

		eng, err := core.NewEngine(f, core.Options{
			Family: noise.UniformUnit, Seed: seed, MaxSamples: 600_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.Check().Satisfiable; got != oracle {
			t.Errorf("trial %d: MC = %v, oracle = %v\n%s", trial, got, oracle, f)
		}

		r, err := Solve(context.Background(), "rtw", f, Config{Seed: seed, MaxSamples: 600_000})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Status.Definitive() || (r.Status == StatusSat) != oracle {
			t.Errorf("trial %d: RTW = %v, oracle = %v\n%s", trial, r.Status, oracle, f)
		}

		se, err := sbl.New(f, sbl.Options{Alloc: sbl.Geometric4, MaxSamples: 1 << 21})
		if err != nil {
			t.Fatal(err)
		}
		if r := se.Check(); r.FullPeriod && r.Satisfiable != oracle {
			t.Errorf("trial %d: SBL = %v, oracle = %v\n%s", trial, r.Satisfiable, oracle, f)
		}

		ae, err := analog.Compile(f, noise.UniformUnit, seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := ae.Check(600_000, 4).Satisfiable; got != oracle {
			t.Errorf("trial %d: analog = %v, oracle = %v\n%s", trial, got, oracle, f)
		}
	}
}

func TestIntegrationAssignmentPipelines(t *testing.T) {
	// Algorithm 2 via three independent routes (core MC over uniform and
	// over RTW carriers, exact) on the same planted instance; all must
	// return verified models.
	g := rng.New(55)
	f, _ := gen.PlantedKSAT(g, 3, 2, 2)

	eng, err := core.NewEngine(f, core.Options{
		Family: noise.UniformUnit, Seed: 8, MaxSamples: 1_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Assign()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Assignment.Satisfies(f) {
		t.Error("core MC assignment invalid")
	}

	re, err := core.NewEngine(f, core.Options{
		Family: noise.RTW, Seed: 9, MaxSamples: 800_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := re.Assign()
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Assignment.Satisfies(f) {
		t.Error("RTW assignment invalid")
	}

	a3, ok := core.ExactAssign(f)
	if !ok || !a3.Satisfies(f) {
		t.Error("exact assignment invalid")
	}
}

func TestIntegrationWeightedCountConsistency(t *testing.T) {
	// K' from the core engine equals the count package's weighted brute
	// force across a sweep, and the SBL full-period DC equals K' for
	// tiny instances — three independent computations of E[S_N].
	g := rng.New(31)
	for trial := 0; trial < 10; trial++ {
		n := 1 + g.Intn(2)
		m := 1 + g.Intn(2)
		f := gen.RandomKSAT(g, n, m, 1)
		unbound := cnf.NewAssignment(f.NumVars)
		kpCore := core.WeightedCount(f, unbound)
		kpCount := count.WeightedBrute(f)
		if kpCore.Cmp(kpCount) != 0 {
			t.Fatalf("trial %d: K' mismatch %s vs %s", trial, kpCore, kpCount)
		}
		se, err := sbl.New(f, sbl.Options{Alloc: sbl.Geometric4, MaxSamples: 1 << 21})
		if err != nil {
			t.Fatal(err)
		}
		if r := se.Check(); r.FullPeriod {
			kp := float64(kpCore.Int64())
			if diff := r.Mean - kp; diff > 1e-4 || diff < -1e-4 {
				t.Errorf("trial %d: SBL DC %v vs K' %v", trial, r.Mean, kp)
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
