package portfolio

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/solver"

	// Register the engines the races draw from.
	_ "repro/internal/cdcl"
	_ "repro/internal/core"
	_ "repro/internal/dpll"
	_ "repro/internal/walksat"
)

func TestPortfolioSATAndUNSAT(t *testing.T) {
	p, err := solver.NewWith("portfolio", solver.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Solve(context.Background(), gen.PaperSAT())
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != solver.StatusSat {
		t.Fatalf("PaperSAT: %v", r)
	}
	if r.Engine == "" || r.Engine == "portfolio" {
		t.Errorf("winner engine not reported: %v", r)
	}

	r, err = p.Solve(context.Background(), gen.PaperUNSAT())
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != solver.StatusUnsat {
		t.Fatalf("PaperUNSAT: %v", r)
	}
}

func TestPortfolioModelWhenCompleteMemberWins(t *testing.T) {
	p := New(solver.Config{Members: []string{"cdcl"}, Seed: 1})
	f := gen.PaperSAT()
	r, err := p.Solve(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != solver.StatusSat || r.Assignment == nil || !r.Assignment.Satisfies(f) {
		t.Fatalf("want verified model from cdcl, got %v", r)
	}
}

func TestPortfolioUnknownMember(t *testing.T) {
	p := New(solver.Config{Members: []string{"no-such-engine"}})
	if _, err := p.Solve(context.Background(), gen.PaperSAT()); err == nil {
		t.Fatal("expected error for unknown member")
	}
}

func TestPortfolioRejectsNesting(t *testing.T) {
	p := New(solver.Config{Members: []string{"portfolio"}})
	if _, err := p.Solve(context.Background(), gen.PaperSAT()); err == nil {
		t.Fatal("expected error for self-nesting")
	}
}

func TestPortfolioHonorsParentContext(t *testing.T) {
	// A lineup of one slow member and an expired parent deadline: the
	// race must surface ctx.Err() promptly.
	p := New(solver.Config{Members: []string{"mc"}, MaxSamples: 1 << 40})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	done := make(chan struct{})
	var err error
	go func() {
		_, err = p.Solve(ctx, gen.PaperSAT())
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("portfolio did not return promptly on expired deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestPortfolioBeatsSlowMember(t *testing.T) {
	// Race a deliberately slow Monte-Carlo configuration (huge budget,
	// convergence effectively disabled by Theta, family "unit") against
	// cdcl, which decides PaperSAT in microseconds. The portfolio must
	// come in far under the slow member running alone.
	f := gen.PaperSAT()
	cfg := solver.Config{Members: []string{"mc", "cdcl"}, MaxSamples: 30_000_000, Seed: 1}

	mcAlone, err := solver.NewWith("mc", cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := mcAlone.Solve(context.Background(), f); err != nil {
		t.Fatal(err)
	}
	mcWall := time.Since(start)

	race, err := solver.NewWith("portfolio", cfg)
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	r, err := race.Solve(context.Background(), f)
	raceWall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != solver.StatusSat {
		t.Fatalf("race verdict: %v", r)
	}
	if raceWall >= mcWall {
		t.Errorf("portfolio (%v) did not beat slowest member alone (%v)", raceWall, mcWall)
	}
	t.Logf("winner=%s race=%v mcAlone=%v", r.Engine, raceWall, mcWall)
}

// TestLostRacesLeaveNoGoroutines runs races that cdcl decides while mc
// and walksat, on budgets they cannot exhaust first, lose and are
// cancelled; once Solve has returned, no member goroutine may outlive
// its race.
func TestLostRacesLeaveNoGoroutines(t *testing.T) {
	f := gen.PaperUNSAT()
	p := New(solver.Config{Seed: 1, MaxSamples: 1 << 40, MaxFlips: 1 << 30, Restarts: 1 << 30})
	start := runtime.NumGoroutine()
	wins := map[string]int{}
	for i := 0; i < 50; i++ {
		r, err := p.Solve(context.Background(), f)
		if err != nil || r.Status != solver.StatusUnsat {
			t.Fatalf("race %d: (%v, %v), want UNSAT", i, r.Status, err)
		}
		wins[r.Engine]++
	}
	if wins["cdcl"] == 0 {
		t.Errorf("cdcl won no race: %v", wins)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the races, %d before:\n%s",
				runtime.NumGoroutine(), start, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}
