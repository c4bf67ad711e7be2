// Conformance suite for the pre(<engine>) solve pipeline: wrapping any
// engine must never change a verdict — only upgrade UNKNOWNs — and
// models must survive the round trip through component decomposition
// and reconstruction.
package repro

import (
	"context"
	"errors"
	"os"
	"testing"
	"time"
)

// pipelineInners are the engines conformance-checked behind pre(...).
// The sampling engines are included to prove the pipeline upgrades
// their SNR-bound UNKNOWNs rather than merely matching them.
var pipelineInners = []string{"mc", "rtw", "sbl", "cdcl", "dpll", "walksat", "portfolio"}

func TestPipelineConformanceWithExactCheck(t *testing.T) {
	instances := conformanceInstances(t)
	// Disjoint unions are where the pipeline earns its keep: the
	// combined n·m is beyond every sampling engine, each component is
	// trivial.
	instances["DisjointEx6x3"] = DisjointUnion(
		PaperExample6(), PaperExample6(), PaperExample6())
	instances["DisjointSatUnsat"] = DisjointUnion(PaperSAT(), PaperUNSAT())

	for _, inner := range pipelineInners {
		t.Run("pre("+inner+")", func(t *testing.T) {
			s, err := NewWith("pre("+inner+")", conformanceConfig())
			if err != nil {
				t.Fatal(err)
			}
			for label, f := range instances {
				oracle := ExactCheck(f)
				r, err := s.Solve(context.Background(), f)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				switch r.Status {
				case StatusSat:
					if !oracle {
						t.Errorf("%s: pipeline says SAT, oracle says UNSAT (%v)", label, r)
					}
					if r.Assignment != nil && !r.Assignment.Satisfies(f) {
						t.Errorf("%s: reconstructed model does not satisfy: %v", label, r)
					}
				case StatusUnsat:
					if oracle {
						t.Errorf("%s: pipeline says UNSAT, oracle says SAT (%v)", label, r)
					}
				case StatusUnknown:
					// Preprocessing decides every one of these instances
					// outright, so even check-only inner engines must be
					// definitive here.
					t.Errorf("%s: unexpected UNKNOWN from pre(%s) (%v)", label, inner, r)
				}
				if r.Stats.NMBefore == 0 {
					t.Errorf("%s: pipeline did not record the n·m reduction: %+v", label, r.Stats)
				}
			}
		})
	}
}

// TestPipelineUpgradesSamplingVerdicts is the acceptance property of
// the pipeline: on instances whose whole-formula n·m is beyond the
// Monte-Carlo engine's SNR reach, bare mc must shrug UNKNOWN while
// pre(mc) returns the definitive verdict — at the same budget.
func TestPipelineUpgradesSamplingVerdicts(t *testing.T) {
	const budget = 400_000 // below the 589,825-sample SNR floor of n·m = 8
	for _, tc := range []struct {
		label string
		f     *Formula
		want  Status
	}{
		{"paper-unsat", PaperUNSAT(), StatusUnsat},
		{"disjoint-ex6x3", DisjointUnion(PaperExample6(), PaperExample6(), PaperExample6()), StatusSat},
	} {
		bare, err := Solve(context.Background(), "mc", tc.f, Config{Seed: 1, MaxSamples: budget})
		if err != nil {
			t.Fatalf("%s bare: %v", tc.label, err)
		}
		if bare.Status != StatusUnknown {
			t.Fatalf("%s: bare mc unexpectedly definitive (%v); the upgrade demo needs an UNKNOWN", tc.label, bare)
		}
		piped, err := Solve(context.Background(), "pre(mc)", tc.f, Config{Seed: 1, MaxSamples: budget})
		if err != nil {
			t.Fatalf("%s pre(mc): %v", tc.label, err)
		}
		if piped.Status != tc.want {
			t.Errorf("%s: pre(mc) = %v, want %v", tc.label, piped.Status, tc.want)
		}
	}
}

func TestPipelineOnSATLIBTestdata(t *testing.T) {
	// The committed SATLIB files, solved through the pipeline with a
	// complete inner engine and checked against ExactCheck.
	for _, path := range []string{
		"testdata/paper-sat-satlib.cnf",
		"testdata/uf8-satlib.cnf",
	} {
		file, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ReadDIMACS(file)
		file.Close()
		if err != nil {
			t.Fatal(err)
		}
		oracle := ExactCheck(f)
		for _, inner := range []string{"cdcl", "dpll"} {
			r, err := Solve(context.Background(), "pre("+inner+")", f, Config{Seed: 1})
			if err != nil {
				t.Fatalf("%s pre(%s): %v", path, inner, err)
			}
			if got := r.Status == StatusSat; !r.Status.Definitive() || got != oracle {
				t.Errorf("%s: pre(%s) = %v, oracle sat=%v", path, inner, r.Status, oracle)
			}
			if r.Status == StatusSat && r.Assignment != nil && !r.Assignment.Satisfies(f) {
				t.Errorf("%s: pre(%s) model does not satisfy", path, inner)
			}
		}
	}
}

func TestPipelineCancellationMidComponent(t *testing.T) {
	// Two pigeonhole components survive preprocessing with n·m in the
	// tens of thousands; dpll needs seconds per component, so a 50ms
	// deadline fires mid-component and must propagate out promptly.
	f := DisjointUnion(Pigeonhole(8), Pigeonhole(8))
	s, err := NewWith("pre(dpll)", Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := s.Solve(ctx, f)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("err = %v, want DeadlineExceeded", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pre(dpll) ignored mid-component cancellation")
	}
}

func TestPipelineAsPortfolioMember(t *testing.T) {
	// pre(mc) racing inside a portfolio: the lineup must construct
	// through the registry and the pipeline's verdict must win on a
	// decomposable instance no bare sampler can decide.
	f := DisjointUnion(PaperExample6(), PaperExample6(), PaperExample6())
	r, err := Solve(context.Background(), "portfolio", f,
		Config{Seed: 1, MaxSamples: 400_000, Members: []string{"pre(mc)", "mc"}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusSat {
		t.Fatalf("portfolio with pre(mc) member: %v, want SAT", r)
	}
	if r.Engine != "pre(mc)" {
		t.Errorf("winner = %q, want pre(mc) (bare mc is SNR-bound here)", r.Engine)
	}
}
