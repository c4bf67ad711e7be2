package exp

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "demo", Headers: []string{"a", "longer"}}
	tab.AddRow(1, 2.5)
	tab.AddRow("xyz", "w")
	s := tab.String()
	if !strings.Contains(s, "== demo ==") || !strings.Contains(s, "longer") {
		t.Errorf("table rendering:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("expected 5 lines, got %d:\n%s", len(lines), s)
	}
}

func TestFig1SeriesConvergesTowardPrediction(t *testing.T) {
	pts := Fig1(2, 400_000, 8)
	if len(pts) != 8 {
		t.Fatalf("points = %d", len(pts))
	}
	last := pts[len(pts)-1]
	// Normalized comparison: SAT mean should be within 60% of the exact
	// prediction at 400k samples (nm=8 is noisy, but the sign and rough
	// magnitude are stable with this seed), UNSAT near zero relative to
	// the SAT level.
	tab := Fig1Table(pts)
	if len(tab.Rows) != 8 {
		t.Fatalf("table rows = %d", len(tab.Rows))
	}
	if last.MeanSAT <= 0 {
		t.Errorf("SAT mean should be positive at the end: %v", last.MeanSAT)
	}
	if math.Abs(last.MeanUNSAT) > math.Abs(last.MeanSAT) {
		t.Errorf("UNSAT mean (%v) should be smaller than SAT mean (%v)",
			last.MeanUNSAT, last.MeanSAT)
	}
}

func TestExample67Smoke(t *testing.T) {
	rows := Example67(1, 300_000)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Got != r.Want {
			t.Errorf("%s: got %v, want %v", r.Name, r.Got, r.Want)
		}
	}
}

func TestSNRScalingShape(t *testing.T) {
	rows := SNRScaling(3, [][2]int{{2, 2}, {2, 3}}, 6, 40_000)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Budget must grow with m at fixed n.
	if rows[1].RequiredLog10 <= rows[0].RequiredLog10 {
		t.Errorf("required samples should grow with nm: %v vs %v",
			rows[0].RequiredLog10, rows[1].RequiredLog10)
	}
	for _, r := range rows {
		if r.Mu1Exact <= 0 {
			t.Errorf("(%d,%d): exact mu1 should be positive", r.N, r.M)
		}
	}
}

func TestKScalingTracksKPrime(t *testing.T) {
	// n=2 keeps nm = 6 (after tautology padding to m=3) inside the SNR
	// budget of a 1M-sample run.
	rows := KScaling(5, 2, []uint64{1, 2, 3}, 1_000_000)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.KPrime != r.ExactMean { // unit variance: ExactMean == K'
			t.Errorf("K=%d: K'=%v but ExactMean=%v", r.K, r.KPrime, r.ExactMean)
		}
		if math.Abs(r.MeasuredMean-r.ExactMean) > 0.5*math.Max(1, r.ExactMean) {
			t.Errorf("K=%d: measured %v vs exact %v", r.K, r.MeasuredMean, r.ExactMean)
		}
	}
	// The measured mean must grow with the model count end to end.
	if rows[2].MeasuredMean <= rows[0].MeasuredMean {
		t.Errorf("means not increasing with K: %v ... %v",
			rows[0].MeasuredMean, rows[2].MeasuredMean)
	}
}

func TestSourceFamiliesAblation(t *testing.T) {
	rows := SourceFamilies(4, 400_000)
	if len(rows) != 10 { // 5 families x 2 instances
		t.Fatalf("rows = %d", len(rows))
	}
	zOnSAT := map[string]float64{}
	for _, r := range rows {
		if r.Instance == "S_SAT" {
			zOnSAT[r.Family] = r.ZScore
		}
		// Gaussian's and the pulse train's kurtosis^nm variance blow-up
		// makes them marginal at this budget — that is the ablation's
		// finding, so only the other families must decide correctly.
		if r.Family != "gaussian(0,1)" && r.Family != "pulse(p=1/4)" && r.Got != r.Want {
			t.Errorf("%s on %s: got %v, want %v (z=%.2f)",
				r.Family, r.Instance, r.Got, r.Want, r.ZScore)
		}
	}
	// The theoretical ordering of decision quality: RTW (kurtosis 1)
	// beats the uniforms (9/5) beats Gaussian (3).
	if !(zOnSAT["rtw(±1)"] > zOnSAT["uniform[-0.5,0.5]"] &&
		zOnSAT["uniform[-0.5,0.5]"] > zOnSAT["gaussian(0,1)"]) {
		t.Errorf("z-score ordering violated: %v", zOnSAT)
	}
}

func TestSBLTradeoffGeometricExact(t *testing.T) {
	rows := SBLTradeoff(1 << 18)
	var sawGeoCorrect bool
	for _, r := range rows {
		if r.Allocation == "geometric4" {
			if !r.Correct {
				t.Errorf("geometric plan wrong on %s", r.Instance)
			}
			if r.FullPeriod && math.Abs(r.DC-r.KPrime) > 1e-4 {
				t.Errorf("%s: geometric DC %v != K' %v", r.Instance, r.DC, r.KPrime)
			}
			sawGeoCorrect = true
		}
	}
	if !sawGeoCorrect {
		t.Error("no geometric rows")
	}
}

func TestAnalogEngineDecides(t *testing.T) {
	rows := AnalogEngine(5, 400_000)
	for _, r := range rows {
		if r.Got != r.Want {
			t.Errorf("%s: hardware engine got %v, want %v", r.Instance, r.Got, r.Want)
		}
	}
}

func TestHybridReducesBacktracks(t *testing.T) {
	rows := Hybrid(6, 10, 4)
	if len(rows) == 0 {
		t.Fatal("no hybrid rows")
	}
	for _, r := range rows {
		if r.HybridBacktrack != 0 {
			t.Errorf("%s: exact-guided hybrid backtracked %d times", r.Instance, r.HybridBacktrack)
		}
	}
}

func TestSolverComparisonAgreement(t *testing.T) {
	// All complete engines must agree on Example 6 and Example 7.
	for _, rows := range [][]SolverRow{
		SolverComparison(gen.PaperExample6(), 7, 300_000),
		SolverComparison(gen.PaperExample7(), 8, 300_000),
	} {
		complete := map[string]string{}
		for _, r := range rows {
			if r.Solver != "walksat" {
				complete[r.Solver] = r.Verdict
			}
		}
		first := ""
		for _, v := range complete {
			if first == "" {
				first = v
			} else if v != first {
				t.Errorf("complete solvers disagree: %v", complete)
				break
			}
		}
	}
}

func TestAssignDemoLinearChecks(t *testing.T) {
	f := gen.PaperExample6()
	a, checks, linear, err := AssignDemo(f, 9, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	if !linear || checks > f.NumVars+1 {
		t.Errorf("checks = %d, linear = %v, want at most n+1 = %d", checks, linear, f.NumVars+1)
	}
	// Propagation decides both bindings: only the Algorithm-1 check is
	// sampled.
	if checks != 1 {
		t.Errorf("checks = %d, want 1", checks)
	}
	if !a.Satisfies(f) {
		t.Error("assignment does not satisfy")
	}
	if want, _ := core.ExactAssign(f); !slices.Equal(a, want) {
		t.Errorf("model %s, ExactAssign's is %s", a, want)
	}
}
