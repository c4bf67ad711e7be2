package main

import (
	"errors"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/cdcl"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/count"
	"repro/internal/dimacs"
	"repro/internal/solver"
)

// fingerprint renders everything the program sees of a job, plus its
// reference, as one comparable string.
func fingerprint(j job) string {
	return fmt.Sprintf("%s|%s|%d|%v|%v|%v|%v|%v",
		dimacs.WriteString(j.f, ""), j.body, j.seed, j.count, j.wantCount, j.want, j.mustDecide, j.needModel)
}

func TestJobsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, other := w.inputs(7, 0), w.inputs(7, 0), w.inputs(8, 0)
		warm := w.inputs(7, warmStream)
		for i := 0; i < 12; i++ {
			ja, jb := a(i), b(i)
			if fingerprint(ja) != fingerprint(jb) {
				t.Fatalf("%s job %d differs between two generators of seed 7", w.name, i)
			}
			if ja.body != "" && ja.body != dimacs.WriteString(ja.f, "") {
				t.Fatalf("%s job %d: body is not the formula's DIMACS", w.name, i)
			}
			if fingerprint(ja) == fingerprint(other(i)) {
				t.Errorf("%s job %d is identical under seeds 7 and 8", w.name, i)
			}
			if fingerprint(ja) == fingerprint(warm(i)) {
				t.Errorf("%s job %d: the warm-up stream repeats the measured one", w.name, i)
			}
		}
	}
}

func TestServeColdBodiesAreDistinct(t *testing.T) {
	jobs := serveCold.inputs(3, 0)
	seen := make(map[string]int)
	for i := 0; i < 200; i++ {
		body := jobs(i).body
		if prev, dup := seen[body]; dup {
			t.Fatalf("jobs %d and %d send the same body", prev, i)
		}
		seen[body] = i
	}
}

func TestRenamedTwinsShareAFingerprint(t *testing.T) {
	fs, bodies := workingSet(5)
	primed := make(map[string]bool)
	verbatim := make(map[string]bool)
	for k, f := range fs {
		primed[cnf.Canonicalize(f).Fingerprint()] = true
		verbatim[bodies[k]] = true
	}
	jobs := fleetHot.inputs(5, 0)
	for i := 0; i < 100; i++ {
		j := jobs(i)
		hot := primed[cnf.Canonicalize(j.f).Fingerprint()]
		switch {
		case i%10 < 6 && !hot:
			t.Errorf("repeat job %d is not in the working set", i)
		case i%10 >= 6 && i%10 < 9:
			if !hot {
				t.Errorf("renamed twin job %d misses the working set's fingerprints", i)
			}
			if verbatim[j.body] {
				t.Errorf("twin job %d is a verbatim repeat", i)
			}
		case i%10 == 9 && hot:
			t.Errorf("cold job %d hits the working set", i)
		}
	}
}

func TestReferencesAgreeWithCompleteEngines(t *testing.T) {
	for _, w := range workloads {
		jobs := w.inputs(11, 0)
		for i := 0; i < 20; i++ {
			j := jobs(i)
			if j.count {
				// count.Brute enumerates every assignment: independent of
				// the component counter the reference came from.
				if brute := new(big.Int).SetUint64(count.Brute(j.f)); brute.Cmp(j.wantCount) != 0 {
					t.Errorf("%s job %d: count %v, brute force %v", w.name, i, j.wantCount, brute)
				}
			}
			_, sat := cdcl.Solve(j.f)
			if statusOf(sat) != j.want {
				t.Errorf("%s job %d: reference %v, cdcl says satisfiable=%v", w.name, i, j.want, sat)
			}
			if j.f.NumVars <= 16 && core.ExactCheck(j.f) != sat {
				t.Errorf("%s job %d: core.ExactCheck disagrees with cdcl", w.name, i)
			}
		}
	}
}

// falsify returns a copy of a with every literal of f's first clause
// made false, so it no longer satisfies f.
func falsify(f *cnf.Formula, a cnf.Assignment) cnf.Assignment {
	b := a.Clone()
	for _, l := range f.Clauses[0] {
		if l.IsNeg() {
			b.Set(l.Var(), cnf.True)
		} else {
			b.Set(l.Var(), cnf.False)
		}
	}
	return b
}

func TestCheckerRejectsCorruptAnswers(t *testing.T) {
	decide := serveCold.inputs(1, 0)(0)
	model, sat := cdcl.Solve(decide.f)
	if !sat {
		t.Fatal("planted job is unsatisfiable")
	}
	counting := serveCold.inputs(1, 0)(9)
	if !counting.count {
		t.Fatal("job 9 of serve-cold is not a count job")
	}
	good := solver.Result{Status: solver.StatusSat, Assignment: model}
	if err := check(decide, good); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	goodCount := solver.Result{Status: counting.want, Count: counting.wantCount}
	if err := check(counting, goodCount); err != nil {
		t.Fatalf("correct count rejected: %v", err)
	}

	wrong := map[string]struct {
		j job
		r solver.Result
	}{
		"flipped verdict":     {decide, solver.Result{Status: solver.StatusUnsat}},
		"unsatisfying model":  {decide, solver.Result{Status: solver.StatusSat, Assignment: falsify(decide.f, model)}},
		"missing model":       {decide, solver.Result{Status: solver.StatusSat}},
		"count off by one":    {counting, solver.Result{Status: counting.want, Count: new(big.Int).Add(counting.wantCount, big.NewInt(1))}},
		"count missing":       {counting, solver.Result{Status: counting.want}},
		"count verdict wrong": {counting, solver.Result{Status: solver.StatusUnknown, Count: counting.wantCount}},
	}
	for name, tc := range wrong {
		if err := check(tc.j, tc.r); !errors.Is(err, errWrong) {
			t.Errorf("%s: check = %v, want a wrong answer", name, err)
		}
	}

	if err := check(decide, solver.Result{Status: solver.StatusUnknown}); !errors.Is(err, errUndecided) {
		t.Errorf("UNKNOWN on a must-decide job: %v, want undecided", err)
	}
	uf := sampleUF20.inputs(1, 0)(0)
	if err := check(uf, solver.Result{Status: solver.StatusUnknown}); err != nil {
		t.Errorf("UNKNOWN on a sampler job: %v, want accepted", err)
	}
}
