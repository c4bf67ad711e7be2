package core

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/solver"
)

// unconditionedAssign is Algorithm 2 without conditioning, the
// reference the differential sweep compares Assign against: n reduced
// checks through CheckBoundCtx, each sampling the whole 2·n·m-source
// hyperspace with one more variable bound.
func unconditionedAssign(ctx context.Context, e *Engine) (AssignResult, error) {
	var out AssignResult
	first, err := e.CheckCtx(ctx)
	out.Checks = append(out.Checks, first)
	if err != nil {
		return out, err
	}
	if !first.Satisfiable {
		return out, ErrUnsat
	}
	bound := cnf.NewAssignment(e.f.NumVars)
	for v := 1; v <= e.f.NumVars; v++ {
		bound.Set(cnf.Var(v), cnf.True)
		r, err := e.CheckBoundCtx(ctx, bound)
		out.Checks = append(out.Checks, r)
		if err != nil {
			return out, err
		}
		if !r.Satisfiable {
			bound.Set(cnf.Var(v), cnf.False)
		}
	}
	out.Assignment = bound
	if !bound.Satisfies(e.f) {
		return out, ErrInconsistent
	}
	return out, nil
}

// TestAssignConditionedAgainstUnconditioned runs both loops on a seeded
// sweep of planted formulas at n·m 6..10 under a fixed 100k budget,
// where the unconditioned reduced checks are near the SNR wall. Every
// conditioned model must be ExactAssign's, and conditioning must not
// raise the number of ErrInconsistent outcomes.
func TestAssignConditionedAgainstUnconditioned(t *testing.T) {
	geometries := [][2]int{{2, 3}, {3, 2}, {2, 4}, {4, 2}, {3, 3}, {2, 5}, {5, 2}}
	const formulas = 240
	g := rng.New(16)
	type tally struct {
		models, inconsistent int
		samples              int64
	}
	var cond, uncond tally
	add := func(tl *tally, res AssignResult, err error) {
		for _, c := range res.Checks {
			tl.samples += c.Samples
		}
		switch {
		case err == nil:
			tl.models++
		case errors.Is(err, ErrInconsistent):
			tl.inconsistent++
		case !errors.Is(err, ErrUnsat):
			t.Fatal(err)
		}
	}
	for i := 0; i < formulas; i++ {
		nm := geometries[i%len(geometries)]
		n, m := nm[0], nm[1]
		f, _ := gen.PlantedKSAT(g, n, m, 2+g.Intn(min(3, n)-1))
		o := testOpts(uint64(1000 + i))
		o.MaxSamples = 100_000

		res, err := mustEngine(t, f, o).AssignCtx(context.Background())
		add(&cond, res, err)
		if len(res.Checks) > n+1 {
			t.Errorf("formula %d (%s): %d checks, above n+1", i, f, len(res.Checks))
		}
		if err == nil {
			if want, _ := ExactAssign(f); !slices.Equal(res.Assignment, want) {
				t.Errorf("formula %d (%s): model %s, ExactAssign's is %s", i, f, res.Assignment, want)
			}
		}

		res, err = unconditionedAssign(context.Background(), mustEngine(t, f, o))
		add(&uncond, res, err)
	}
	t.Logf("%d formulas: models %d -> %d, ErrInconsistent %d -> %d, samples %d -> %d",
		formulas, uncond.models, cond.models, uncond.inconsistent, cond.inconsistent,
		uncond.samples, cond.samples)
	if cond.inconsistent > uncond.inconsistent {
		t.Errorf("conditioning raised ErrInconsistent from %d to %d", uncond.inconsistent, cond.inconsistent)
	}
}

// TestTracedAssignRecordsChecks: a traced FindModel solve of Example 6
// records on its mc.check span that one check was sampled — binding
// x1 = 1 forces x2 = 0, so the Algorithm-1 check is the only one.
func TestTracedAssignRecordsChecks(t *testing.T) {
	s, err := solver.NewWith("mc", solver.Config{Seed: 7, MaxSamples: 600_000, FindModel: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("")
	root := tr.Root("job")
	r, err := s.Solve(obs.ContextWithSpan(context.Background(), root), gen.PaperExample6())
	root.Finish()
	if err != nil || r.Status != solver.StatusSat {
		t.Fatalf("solve = %v, %v; want SAT", r.Status, err)
	}
	check := tr.JSON().Find("mc.check")
	if check == nil {
		t.Fatal("no mc.check span")
	}
	got := ""
	for _, a := range check.Attrs {
		if a.Key == "checks" {
			got = a.Val
		}
	}
	if got != "1" {
		t.Errorf("mc.check checks=%q, want 1 (attrs %+v)", got, check.Attrs)
	}
}
