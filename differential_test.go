// Engine differential suite: every registered engine decides one
// seeded corpus of small formulas. The complete engines must agree on
// every verdict, every definitive verdict of any other engine must
// agree with cdcl, and every model must satisfy its formula. This is
// the north star's "no verdict the engine cannot back", checked rather
// than argued.
package repro

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cnf"
	"repro/internal/count"
	"repro/internal/gen"
	"repro/internal/rng"
)

// completeEngines always reach a verdict on the corpus, so they must
// all give the same one.
var completeEngines = []string{"cdcl", "dpll", "exact", "count", "pre(cdcl)", "pre(dpll)"}

// samplingEngines draw noise; they run only where n·m ≤ 12, inside the
// reach of the conformance budget.
var samplingEngines = []string{"mc", "rtw", "sbl", "analog"}

// modelEngines return a model only when asked for one (exact through
// ExactAssign, mc through Algorithm 2); the suite asks.
var modelEngines = []string{"exact", "mc"}

// differentialCorpus returns seeded formulas over at most 12 variables:
// random 3-SAT at clause ratios 3 to 6, planted 3-SAT, mixed clause
// lengths, pigeonhole 3 and the paper instances.
func differentialCorpus() map[string]*cnf.Formula {
	g := rng.New(2024)
	corpus := map[string]*cnf.Formula{
		"PaperSAT": gen.PaperSAT(), "PaperUNSAT": gen.PaperUNSAT(),
		"PaperExample5": gen.PaperExample5(), "PaperExample6": gen.PaperExample6(),
		"PaperExample7": gen.PaperExample7(), "Pigeonhole3": gen.Pigeonhole(3),
	}
	for n := 3; n <= 12; n++ {
		for ratio := 3; ratio <= 6; ratio++ {
			corpus[fmt.Sprintf("random-3sat-%d-%d", n, ratio*n)] = gen.RandomKSAT(g, n, ratio*n, 3)
		}
		f, _ := gen.PlantedKSAT(g, n, 4*n, 3)
		corpus[fmt.Sprintf("planted-%d-%d", n, 4*n)] = f
	}
	for i := 0; i < 60; i++ {
		n := 1 + g.Intn(12)
		f := cnf.New(n)
		for m := 1 + g.Intn(3*n); m > 0; m-- {
			k := 1 + g.Intn(min(4, n))
			f.Clauses = append(f.Clauses, gen.RandomKSAT(g, n, 1, k).Clauses[0])
		}
		corpus[fmt.Sprintf("mixed-%d", i)] = f
	}
	return corpus
}

func TestEngineDifferential(t *testing.T) {
	corpus := differentialCorpus()
	labels := make([]string, 0, len(corpus))
	for label := range corpus {
		labels = append(labels, label)
	}
	slices.Sort(labels)
	want := map[string]Status{}
	sampled := 0
	for _, label := range labels {
		r, err := Solve(context.Background(), "cdcl", corpus[label], conformanceConfig())
		if err != nil || r.Status == StatusUnknown {
			t.Fatalf("%s: cdcl gave no verdict: (%v, %v)", label, r.Status, err)
		}
		want[label] = r.Status
		if f := corpus[label]; f.NumVars*f.NumClauses() <= 12 {
			sampled++
		}
	}
	if sampled < 10 {
		t.Errorf("only %d formulas within the samplers' reach", sampled)
	}
	for _, name := range append(Engines(), "pre(cdcl)", "pre(dpll)", "pre(portfolio)") {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			complete := slices.Contains(completeEngines, name)
			cfg := conformanceConfig()
			cfg.FindModel = slices.Contains(modelEngines, name)
			for _, label := range labels {
				f := corpus[label]
				if slices.Contains(samplingEngines, name) && f.NumVars*f.NumClauses() > 12 {
					continue
				}
				r, err := Solve(context.Background(), name, f, cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if r.Status == StatusSat && r.Assignment != nil && !r.Assignment.Satisfies(f) {
					t.Errorf("%s: model %s does not satisfy %s", label, r.Assignment, f)
				}
				if r.Status == StatusSat && r.Assignment == nil && slices.Contains(modelEngines, name) {
					t.Errorf("%s: SAT without the model asked for", label)
				}
				if got := r.Status; got != want[label] && (complete || got != StatusUnknown) {
					t.Errorf("%s: %v, cdcl says %v", label, got, want[label])
				}
			}
		})
	}
}

// FuzzEngineDifferential feeds arbitrary small formulas (fuzzFormula:
// at most 8 variables and 16 clauses) to the engine differential, with
// brute force as the oracle. The complete engines, bare and under
// pre(·), and a cdcl,walksat portfolio must match it; walksat and sbl
// under geometric4 may shrug, but a verdict they give must match it.
// Every model must satisfy the formula. Any engine may refuse an input:
// an error and no verdict. mc, rtw, analog and lineups holding them stay
// with TestEngineDifferential's seeded corpus: over enough inputs a
// fuzzer would find a 4σ draw, which is statistics, not a defect.
func FuzzEngineDifferential(f *testing.F) {
	f.Add(uint8(3), []byte{2, 2, 5, 2, 3, 4, 1, 0})
	f.Add(uint8(2), []byte{3, 2, 2, 3, 0})
	f.Add(uint8(1), []byte{1, 0, 1, 1})
	f.Add(uint8(8), []byte{1, 4, 3, 6, 9, 12, 4, 0, 1, 2, 3})
	f.Add(uint8(0), []byte{0})
	type run struct {
		engine   string
		complete bool
		cfg      Config
	}
	lineup := conformanceConfig()
	lineup.Members = []string{"cdcl", "walksat"}
	// sbl is definitive only over a full carrier period, 2·4^(2nm)
	// samples; the conformance budget covers n·m ≤ 4, and sbl answers a
	// larger input UNKNOWN without sampling.
	runs := []run{{"portfolio", true, lineup}, {"walksat", false, conformanceConfig()}, {"sbl", false, conformanceConfig()}}
	for _, e := range []string{"cdcl", "dpll", "exact", "count", "wcount", "hybrid"} {
		runs = append(runs, run{e, true, conformanceConfig()}, run{"pre(" + e + ")", true, conformanceConfig()})
	}
	f.Fuzz(func(t *testing.T, n uint8, body []byte) {
		form := fuzzFormula(n, body)
		want := StatusUnsat
		if count.Brute(form) > 0 {
			want = StatusSat
		}
		for _, run := range runs {
			r, err := Solve(context.Background(), run.engine, form, run.cfg)
			switch {
			case err != nil && (r.Status != StatusUnknown || r.Assignment != nil):
				t.Fatalf("%s on %v: error %v with a verdict %v", run.engine, form, err, r)
			case r.Status == StatusSat && r.Assignment != nil && !r.Assignment.Satisfies(form):
				t.Fatalf("%s on %v: model %s does not satisfy it", run.engine, form, r.Assignment)
			case err == nil && r.Status != want && (run.complete || r.Status != StatusUnknown):
				t.Fatalf("%s on %v: %v, brute force says %v", run.engine, form, r.Status, want)
			}
		}
	})
}
