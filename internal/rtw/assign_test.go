package rtw

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/solver"
)

// Algorithm 2 over ±1 carriers runs on the engine's shared sampler, the
// route `mc -family rtw -model` takes; the registry's rtw entry itself
// refuses FindModel.

// assignEngine builds an RTW engine on f whose every check, the
// Algorithm 2 ones included, has a budget of samples.
func assignEngine(t *testing.T, f *cnf.Formula, seed uint64, samples int64) *Engine {
	t.Helper()
	e, err := New(f, core.Options{Seed: seed, MaxSamples: samples, Theta: 4})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestAssignPaperExamples(t *testing.T) {
	f := gen.PaperExample6()
	res, err := assignEngine(t, f, 3, 300_000).mc.Assign()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Assignment.Satisfies(f) {
		t.Errorf("assignment %s does not satisfy", res.Assignment)
	}
}

func TestAssignUnsat(t *testing.T) {
	// 1M samples clear the 589,825 an UNSAT verdict on n·m = 8 needs.
	e := assignEngine(t, gen.PaperUNSAT(), 5, 1_000_000)
	if _, err := e.mc.Assign(); !errors.Is(err, core.ErrUnsat) {
		t.Errorf("err = %v, want ErrUnsat", err)
	}
}

func TestAssignRestoresBindings(t *testing.T) {
	f := gen.PaperExample6()
	e := assignEngine(t, f, 7, 300_000)
	if _, err := e.mc.Assign(); err != nil {
		t.Fatal(err)
	}
	// The engine's next plain check must start from unbound state.
	r, err := check(context.Background(), e, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != solver.StatusSat {
		t.Errorf("post-Assign engine state corrupted: %v %+v", r.Status, r.Stats)
	}
}

func TestAssignPlantedInstances(t *testing.T) {
	g := rng.New(31)
	for trial := 0; trial < 4; trial++ {
		f, _ := gen.PlantedKSAT(g, 3, 2, 2)
		res, err := assignEngine(t, f, uint64(trial+10), 500_000).mc.Assign()
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, f, err)
		}
		if !res.Assignment.Satisfies(f) {
			t.Fatalf("trial %d: bad assignment %s", trial, res.Assignment)
		}
	}
}
