package repro

import (
	"context"
	"strings"
	"testing"
)

// solveWith builds engine through the registry and solves f.
func solveWith(t *testing.T, engine string, f *Formula, cfg Config) Result {
	t.Helper()
	s, err := NewWith(engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Solve(context.Background(), f)
	if err != nil {
		t.Fatalf("%s: %v", engine, err)
	}
	return r
}

func TestFacadeQuickstartFlow(t *testing.T) {
	f := FromClauses([]int{1, 2}, []int{-1, -2})
	cfg := Config{Family: "unit", Seed: 1, MaxSamples: 400_000}
	if r := solveWith(t, "mc", f, cfg); r.Status != StatusSat {
		t.Fatalf("check: %v", r)
	}
	cfg.FindModel = true
	r := solveWith(t, "mc", f, cfg)
	if !r.Assignment.Satisfies(f) {
		t.Errorf("assignment %s does not satisfy", r.Assignment)
	}
}

func TestFacadeDIMACSRoundTrip(t *testing.T) {
	f := PaperSAT()
	var sb strings.Builder
	if err := WriteDIMACS(&sb, f, "figure 1 sat instance"); err != nil {
		t.Fatal(err)
	}
	g, err := ReadDIMACS(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g.String() != f.String() {
		t.Error("round trip changed formula")
	}
}

func TestFacadeSolversAgree(t *testing.T) {
	for _, f := range []*Formula{PaperSAT(), PaperUNSAT(), PaperExample6(), PaperExample7()} {
		dp := solveWith(t, "dpll", f, Config{}).Status == StatusSat
		cd := solveWith(t, "cdcl", f, Config{}).Status == StatusSat
		ex := ExactCheck(f)
		if dp != cd || cd != ex {
			t.Errorf("%s: dpll=%v cdcl=%v exact=%v", f, dp, cd, ex)
		}
	}
}

func TestFacadeExactAssign(t *testing.T) {
	a, ok := ExactAssign(PaperExample6())
	if !ok || !a.Satisfies(PaperExample6()) {
		t.Error("ExactAssign failed on Example 6")
	}
	if _, ok := ExactAssign(PaperUNSAT()); ok {
		t.Error("ExactAssign succeeded on UNSAT instance")
	}
}

func TestFacadeGenerators(t *testing.T) {
	f := RandomKSAT(1, 10, 30, 3)
	if f.NumVars != 10 || f.NumClauses() != 30 {
		t.Error("RandomKSAT dims")
	}
	g, planted := PlantedKSAT(2, 10, 30, 3)
	if !planted.Satisfies(g) {
		t.Error("planted model invalid")
	}
	if CountModels(PaperExample6()) != "2" {
		t.Errorf("CountModels = %s, want 2", CountModels(PaperExample6()))
	}
}

func TestFacadeWalkSAT(t *testing.T) {
	r := solveWith(t, "walksat", PaperExample6(), Config{Seed: 3})
	if r.Status != StatusSat || !r.Assignment.Satisfies(PaperExample6()) {
		t.Error("WalkSAT failed on Example 6")
	}
}

func TestFacadeConstants(t *testing.T) {
	if True == False || True == Unassigned {
		t.Error("truth constants collide")
	}
	fams := []Family{UniformHalf, UniformUnit, Gaussian, RTW}
	seen := map[Family]bool{}
	for _, f := range fams {
		if seen[f] {
			t.Error("family constants collide")
		}
		seen[f] = true
	}
}
