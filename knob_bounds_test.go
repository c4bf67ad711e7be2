package repro

import (
	"context"
	"math"
	"strings"
	"testing"
)

// TestNewWithRefusesOutOfRangeKnobs pins the knob bounds every surface
// shares. solver.Config.Validate writes them once and NewWith applies
// them, so the CLI, this library, nblserve and every pool, portfolio
// and pipeline construction refuse the same values. A NaN theta fails
// every SAT comparison (a definitive UNSAT for a satisfiable formula),
// and a negative one certifies SAT on noise. A portfolio member that
// is or wraps the portfolio would lease the portfolio without bound,
// and one the registry cannot build would fail only once leased.
func TestNewWithRefusesOutOfRangeKnobs(t *testing.T) {
	rows := []struct {
		knob string
		cfg  Config
	}{
		{"theta", Config{Theta: math.NaN()}},
		{"theta", Config{Theta: math.Inf(1)}},
		{"theta", Config{Theta: -2}},
		{"workers", Config{Workers: -1}},
		{"workers", Config{Workers: 65}},
		{"samples", Config{MaxSamples: -1}},
		{"noise", Config{NoiseP: math.NaN()}},
		// A member that is or wraps the portfolio would race itself.
		{`"portfolio"`, Config{Members: []string{"portfolio"}}},
		{"pre(pre(portfolio))", Config{Members: []string{"cdcl", "pre(pre(portfolio))"}}},
		// A member the registry cannot build would fail on a worker.
		{`"nosuch"`, Config{Members: []string{"cdcl", "nosuch"}}},
		{`"pre(nosuch)"`, Config{Members: []string{"pre(nosuch)"}}},
	}
	for _, engine := range []string{"mc", "rtw", "portfolio", "pre(mc)"} {
		for _, row := range rows {
			if _, err := NewWith(engine, row.cfg); err == nil || !strings.Contains(err.Error(), row.knob) {
				t.Errorf("%s with %+v: err = %v, want a refusal naming %s", engine, row.cfg, err, row.knob)
			}
		}
		// The edges of the bounds still construct.
		if _, err := NewWith(engine, Config{Workers: 64, MaxSamples: 1, Members: []string{"pre(cdcl)", "walksat"}}); err != nil {
			t.Errorf("%s at the bounds: %v", engine, err)
		}
	}

	// A value one engine cannot honour is refused by that engine's
	// factory, before any formula is solved: the noise family of mc and
	// analog, sbl's carrier plan, and model recovery by the engines that
	// only check or count. pre(·) builds its inner engine, so it refuses
	// the same way.
	for _, row := range []struct {
		engine, knob string
		cfg          Config
	}{
		{"mc", "family", Config{Family: "nosuch"}},
		{"pre(mc)", "family", Config{Family: "nosuch"}},
		{"analog", "family", Config{Family: "nosuch"}},
		{"sbl", "allocation", Config{Allocation: "nosuch"}},
		{"rtw", "model", Config{FindModel: true}},
		{"sbl", "model", Config{FindModel: true}},
		{"analog", "model", Config{FindModel: true}},
		{"count", "model", Config{FindModel: true}},
		{"wcount", "model", Config{FindModel: true}},
		{"pre(rtw)", "model", Config{FindModel: true}},
	} {
		if _, err := NewWith(row.engine, row.cfg); err == nil || !strings.Contains(err.Error(), row.knob) {
			t.Errorf("%s with %+v: err = %v, want a refusal naming %s", row.engine, row.cfg, err, row.knob)
		}
	}
	// A portfolio builds its members per race, and a member that refuses
	// the Config is a failed member, not a refused lineup.
	if _, err := NewWith("portfolio", Config{FindModel: true, Members: []string{"cdcl", "rtw"}}); err != nil {
		t.Errorf("portfolio over cdcl,rtw with FindModel: %v", err)
	}

	res, err := Solve(context.Background(), "mc", PaperSAT(), Config{Theta: math.NaN()})
	if err == nil {
		t.Fatalf("mc with theta NaN answered %v, want an error", res.Status)
	}
}
