package pipeline

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/solver"

	// Real engines for the integration paths.
	_ "repro/internal/cdcl"
	_ "repro/internal/dpll"
	_ "repro/internal/portfolio"
	_ "repro/internal/walksat"
)

// Stub engines, registered once for the whole package test binary.
var (
	stubBlockedStarted atomic.Int32
	stubUnsatSolves    atomic.Int32
)

func init() {
	// stub-block parks until its context ends — a stand-in for an
	// engine grinding on an undecidable component.
	solver.Register("stub-block", func(_ string, cfg solver.Config) (solver.Solver, error) {
		return solver.Func(func(ctx context.Context, f *cnf.Formula) (solver.Result, error) {
			stubBlockedStarted.Add(1)
			<-ctx.Done()
			return solver.Result{}, ctx.Err()
		}), nil
	})
	// stub-unsat-small answers UNSAT for components of fewer than 16
	// variables and blocks on everything else, so a decomposed solve
	// only terminates if the pipeline cancels siblings after the first
	// UNSAT.
	solver.Register("stub-unsat-small", func(_ string, cfg solver.Config) (solver.Solver, error) {
		return solver.Func(func(ctx context.Context, f *cnf.Formula) (solver.Result, error) {
			stubUnsatSolves.Add(1)
			if f.NumVars < 16 {
				return solver.Result{Status: solver.StatusUnsat}, nil
			}
			<-ctx.Done()
			return solver.Result{}, ctx.Err()
		}), nil
	})
}

// survivingUnion returns a disjoint union of two random 3-SAT blocks
// dense enough to survive preprocessing, so the fan-out path genuinely
// runs the inner engine.
func survivingUnion() *cnf.Formula {
	return gen.DisjointUnion(
		gen.RandomKSAT(rng.New(1), 20, 91, 3),
		gen.RandomKSAT(rng.New(2), 20, 91, 3),
	)
}

func TestConstructionErrors(t *testing.T) {
	if _, err := New("", solver.Config{}); err == nil {
		t.Error("pre() with empty inner must fail")
	}
	if _, err := New("no-such-engine", solver.Config{}); err == nil {
		t.Error("pre(no-such-engine) must fail at construction")
	}
	if _, err := solver.NewWith("pre(no-such-engine)", solver.Config{}); err == nil {
		t.Error("registry path must surface the unknown inner engine")
	}
	if _, err := solver.NewWith("pre(pre(cdcl))", solver.Config{}); err != nil {
		t.Errorf("nested meta expression should parse: %v", err)
	}
}

func TestPreprocessingShortCircuits(t *testing.T) {
	// Both paper instances are fully decided by preprocessing: the
	// inner engine must never run. stub-block would park until the 5s
	// guard if it did, failing the status check.
	for _, tc := range []struct {
		f    *cnf.Formula
		want solver.Status
	}{
		{gen.PaperSAT(), solver.StatusSat},
		{gen.PaperUNSAT(), solver.StatusUnsat},
	} {
		p, err := New("stub-block", solver.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		r, err := p.Solve(ctx, tc.f)
		cancel()
		if err != nil || r.Status != tc.want {
			t.Errorf("%v: got (%v, %v), want %v", tc.f, r.Status, err, tc.want)
		}
		if r.Stats.NMBefore == 0 {
			t.Errorf("%v: NMBefore not recorded: %+v", tc.f, r.Stats)
		}
		if tc.want == solver.StatusSat && (r.Assignment == nil || !r.Assignment.Satisfies(tc.f)) {
			t.Errorf("%v: preprocessing-proved SAT must carry a model", tc.f)
		}
	}
}

func TestUnsatComponentCancelsSiblings(t *testing.T) {
	// Three components survive preprocessing: two 20-variable random
	// blocks the stub parks on (19 and 20 variables after it), plus a
	// 15/64 block (15/60 after it) the stub answers UNSAT. The solve
	// only terminates (well inside the 10s guard) if that UNSAT cancels
	// the siblings.
	f := gen.DisjointUnion(
		gen.RandomKSAT(rng.New(3), 20, 91, 3),
		gen.RandomKSAT(rng.New(4), 20, 91, 3),
		gen.RandomKSAT(rng.New(5), 15, 64, 3),
	)
	p, err := New("stub-unsat-small", solver.Config{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r, err := p.Solve(ctx, f)
	if err != nil || r.Status != solver.StatusUnsat {
		t.Fatalf("got (%v, %v), want UNSAT from the stub component", r.Status, err)
	}
	if r.Stats.Components != 3 {
		t.Errorf("expected 3 components, got %d", r.Stats.Components)
	}
	// The siblings may never reach the stub at all: the registry
	// wrapper short-circuits once the UNSAT component's cancellation
	// lands. At least the deciding component must have run.
	if n := stubUnsatSolves.Load(); n < 1 {
		t.Errorf("expected at least the UNSAT component to reach the stub, saw %d", n)
	}
}

func TestParentCancellationPropagates(t *testing.T) {
	p, err := New("stub-block", solver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The random blocks survive preprocessing and the stub parks on
	// them until the parent context is cancelled mid-component. The
	// cancel fires only after both components are confirmed parked, so
	// the test never races preprocessing against a wall-clock deadline
	// (under -race, preprocessing alone can outlast any tight timeout).
	f := survivingUnion()
	base := stubBlockedStarted.Load()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := p.Solve(ctx, f)
		done <- err
	}()
	guard := time.After(10 * time.Second)
	for stubBlockedStarted.Load() < base+2 {
		select {
		case err := <-done:
			t.Fatalf("solve returned before both components fanned out: %v", err)
		case <-guard:
			t.Fatalf("components never reached the stub (saw %d)",
				stubBlockedStarted.Load()-base)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pipeline ignored parent cancellation")
	}
}

func TestRealEnginesOnDecomposableUnion(t *testing.T) {
	// pre(cdcl) and pre(dpll) on a genuinely decomposed union: both
	// components survive preprocessing, get solved by the real engine,
	// and the verdict/model merge is checked against the parent.
	planted1, _ := gen.PlantedKSAT(rng.New(31), 20, 91, 3)
	planted2, _ := gen.PlantedKSAT(rng.New(32), 20, 91, 3)
	sat := gen.DisjointUnion(planted1, planted2)
	for _, inner := range []string{"cdcl", "dpll"} {
		s, err := solver.NewWith("pre("+inner+")", solver.Config{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Solve(context.Background(), sat)
		if err != nil || r.Status != solver.StatusSat {
			t.Fatalf("pre(%s): got (%v, %v), want SAT", inner, r.Status, err)
		}
		if r.Assignment == nil || !r.Assignment.Satisfies(sat) {
			t.Fatalf("pre(%s): model missing or wrong after component lifting", inner)
		}
		if r.Stats.Components != 2 {
			t.Errorf("pre(%s): components = %d, want 2", inner, r.Stats.Components)
		}
		if r.Engine != "pre("+inner+")" {
			t.Errorf("result engine = %q, want %q", r.Engine, "pre("+inner+")")
		}
	}
}

// TestComponentSpanNamesDecidingEngine: every pipeline.component span
// carries the engine that decided the component, and under a portfolio
// that is the member that won the component's race.
func TestComponentSpanNamesDecidingEngine(t *testing.T) {
	planted1, _ := gen.PlantedKSAT(rng.New(31), 20, 91, 3)
	planted2, _ := gen.PlantedKSAT(rng.New(32), 20, 91, 3)
	sat := gen.DisjointUnion(planted1, planted2)
	for _, tc := range []struct {
		engine string
		want   map[string]bool
	}{
		{"pre(cdcl)", map[string]bool{"cdcl": true}},
		{"pre(portfolio)", map[string]bool{"cdcl": true, "walksat": true}},
	} {
		s, err := solver.NewWith(tc.engine, solver.Config{Members: []string{"cdcl", "walksat"}})
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace("")
		root := tr.Root("solve")
		r, err := s.Solve(obs.ContextWithSpan(context.Background(), root), sat)
		root.Finish()
		if err != nil || r.Status != solver.StatusSat {
			t.Fatalf("%s: got (%v, %v), want SAT", tc.engine, r.Status, err)
		}
		spans := 0
		tr.JSON().Walk(func(sp *obs.SpanJSON) {
			if sp.Name != "pipeline.component" {
				return
			}
			spans++
			engine := ""
			for _, a := range sp.Attrs {
				if a.Key == "engine" {
					engine = a.Val
				}
			}
			if !tc.want[engine] {
				t.Errorf("%s: component span engine = %q, want one of %v", tc.engine, engine, tc.want)
			}
		})
		if spans != 2 {
			t.Errorf("%s: %d component spans, want 2", tc.engine, spans)
		}
	}
}
