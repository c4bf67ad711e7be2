package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/simplify"
	"repro/internal/solver"

	_ "repro/internal/count"
)

// goldenRuns are the engine and task pairs TestPipelineGolden runs every
// corpus formula under. maxComp skips formulas with a larger component:
// wcount enumerates each component, and a 30-variable serving block
// would take 2^30 steps.
var goldenRuns = []struct {
	engine  string
	task    solver.Task
	model   bool
	maxComp int
}{
	{"pre(cdcl)", solver.TaskDecide, true, 0},
	{"pre(dpll)", solver.TaskDecide, true, 0},
	{"pre(count)", solver.TaskCount, false, 0},
	{"pre(wcount)", solver.TaskWeightedCount, false, 20},
}

// pipelineSums holds, per corpus family, one SHA-256 per goldenRuns
// entry (in order) over the outcome of every formula in the family.
// serve-cold's pre(wcount) entry hashes nothing: every block is larger
// than maxComp.
var pipelineSums = map[string][]string{
	"serve-cold": {
		"e45d3140606341c5a65e3c0c3b033b5e750309f423fb7894fad1deeb2711ccf6",
		"616efa99908ce23d3885d9cc6abeecb3451349d7f755795f86329083cd8b2962",
		"7139edd32ece97719b041bbc2894a77b58ee91e95e511096c69cfe92c04cdfc8",
		"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	},
	"small-blocks": {
		"d6befb10df09d85640b6621cd36b7a1dbbab9714d2fd7cccc23bca7b3659c95d",
		"0b49cf3b2538d8ce5d31340ca2854529a5c3d5fae9e72b115a571e4dd2b817f9",
		"46f1820a6943c4daf8e8e67d2c3c66523642a467d7555ccfc2dbb88dd51a7f7f",
		"27c78bc3ae3faebaf6616ba9e44504fcca829eeeab4de63bc6cffa7ce5efb005",
	},
	"random-3sat": {
		"19590f0340e93b113d781547d5a14ea3b5c59919032496294161ce69a03cbdfb",
		"c78eeabad7a8759007b48899a98309d7d26afb651ca8c10ec904bf4d08d51923",
		"cd056da7595aa4542ff58a1941b345867779fb5c146f011489e8385e8f54718e",
		"e6431991651344f0081206730e2b678071a7b5b56170459b80b2af19d5630595",
	},
	"mixed": {
		"5d4c0c8f895cef58dbcfc60df9f2c0bf58fd10942722cfe36b969e65c71c9530",
		"5d4c0c8f895cef58dbcfc60df9f2c0bf58fd10942722cfe36b969e65c71c9530",
		"5152034f33a7a07725960590ac5e3f2eaaf730b911c70cbe446d943c3b82a5fb",
		"4bbb44d39779942619aef770dc16daf68efd61f802a427ef78ea8731342679ab",
	},
	"unmentioned": {
		"2a8e8094a65dfa47dff62238caabc6ee28db4ba92d5cfabd6a9303b8416ecdd8",
		"443bad055848490f381430f42a39d659762bf43891d81a1f34aa3684e2b16c42",
		"73391afd1e598b410efb8d274ebbe254a73fb00d76947248614df0095a5f4980",
		"044b505cdf923ae3de5660c1ed6bd695d4b2da552c14e48d0ee33794f60b2e0d",
	},
	"no-clauses": {
		"f397bafe32a84455c12d533830423a242b74033a22abe33ab72a673fd83ce659",
		"f397bafe32a84455c12d533830423a242b74033a22abe33ab72a673fd83ce659",
		"5228dae225226441c9ca80b64a7f212b87b74a861bd22ebcd60c70f3c9ba648f",
		"5228dae225226441c9ca80b64a7f212b87b74a861bd22ebcd60c70f3c9ba648f",
	},
}

// goldenScrambled returns f with its variables permuted and the
// literals of every clause and the clauses themselves shuffled.
func goldenScrambled(g *rng.Xoshiro256, f *cnf.Formula) *cnf.Formula {
	perm := g.Perm(f.NumVars)
	out := cnf.New(f.NumVars)
	for _, c := range f.Clauses {
		d := make(cnf.Clause, len(c))
		for k, l := range c {
			d[k] = cnf.NewLit(cnf.Var(perm[l.Var()-1]+1), l.IsNeg())
		}
		g.Shuffle(len(d), func(a, b int) { d[a], d[b] = d[b], d[a] })
		out.Clauses = append(out.Clauses, d)
	}
	g.Shuffle(len(out.Clauses), func(a, b int) {
		out.Clauses[a], out.Clauses[b] = out.Clauses[b], out.Clauses[a]
	})
	return out
}

// goldenRaw returns m clauses of 1 to 4 literals drawn independently
// over n variables, so duplicate literals, tautologies and units all
// occur, with one clause in 40 left empty.
func goldenRaw(g *rng.Xoshiro256, n, m int) *cnf.Formula {
	f := cnf.New(n)
	for i := 0; i < m; i++ {
		k := 1 + g.Intn(4)
		if g.Intn(40) == 0 {
			k = 0
		}
		c := make(cnf.Clause, k)
		for k := range c {
			c[k] = cnf.NewLit(cnf.Var(1+g.Intn(n)), g.Intn(2) == 1)
		}
		f.Clauses = append(f.Clauses, c)
	}
	return f
}

// pipelineCorpus returns the seeded corpus, keyed by family.
func pipelineCorpus() map[string][]*cnf.Formula {
	g := rng.New(2026)
	corpus := map[string][]*cnf.Formula{}
	blocks := func(family string, count, n int) {
		fs := make([]*cnf.Formula, count)
		for b := range fs {
			fs[b], _ = gen.PlantedKSAT(g, n, 4*n, 3)
		}
		corpus[family] = append(corpus[family], goldenScrambled(g, gen.DisjointUnion(fs...)))
	}
	for count := 3; count <= 6; count++ {
		blocks("serve-cold", count, 30)
		blocks("small-blocks", count, 10)
	}
	for i := 0; i < 40; i++ {
		n := 3 + g.Intn(14)
		corpus["random-3sat"] = append(corpus["random-3sat"], gen.RandomKSAT(g, n, 1+g.Intn(6*n), 3))
	}
	for i := 0; i < 150; i++ {
		n := 1 + g.Intn(8)
		corpus["mixed"] = append(corpus["mixed"], goldenRaw(g, n, 1+g.Intn(3*n)))
	}
	for i := 0; i < 40; i++ {
		// Clauses over the first n variables of n+extra declared ones,
		// then renamed so the unmentioned ones are scattered.
		n, extra := 1+g.Intn(8), 1+g.Intn(6)
		f := gen.RandomKSAT(g, n, 1+g.Intn(4*n), min(3, n))
		f.NumVars += extra
		corpus["unmentioned"] = append(corpus["unmentioned"], goldenScrambled(g, f))
	}
	for _, n := range []int{0, 1, 5, 20} {
		corpus["no-clauses"] = append(corpus["no-clauses"], cnf.New(n))
	}
	return corpus
}

// hashOutcome writes the verdict, count, model and reduction trail of
// one solve to h. The effort counters are left out: a cancelled
// sibling's effort depends on timing.
func hashOutcome(h hash.Hash, r solver.Result, err error) {
	if err != nil {
		fmt.Fprintf(h, "error %v\n", err)
		return
	}
	fmt.Fprintf(h, "%v count %v model %v nm %d %d comps %d\n", r.Status, r.Count,
		[]cnf.Value(r.Assignment), r.Stats.NMBefore, r.Stats.NMAfter, r.Stats.Components)
}

// largestComponent returns the most variables one component of f has.
func largestComponent(f *cnf.Formula) int {
	most := 0
	for _, c := range simplify.Decompose(f) {
		most = max(most, c.F.NumVars)
	}
	return most
}

// TestPipelineGolden pins pre(·)'s output over a seeded corpus: the
// verdict, the model, the count, n·m before and after preprocessing and
// the component count, for decide, count and weighted-count alike.
func TestPipelineGolden(t *testing.T) {
	corpus := pipelineCorpus()
	for family, fs := range corpus {
		for ri, run := range goldenRuns {
			s, err := solver.NewWith(run.engine, solver.Config{Task: run.task, FindModel: run.model})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, f := range fs {
				if run.maxComp > 0 && largestComponent(f) > run.maxComp {
					continue
				}
				r, err := s.Solve(context.Background(), f)
				hashOutcome(h, r, err)
			}
			got := hex.EncodeToString(h.Sum(nil))
			if want := pipelineSums[family]; ri >= len(want) || got != want[ri] {
				t.Errorf("%s/%s: sha256 %s", family, run.engine, got)
			}
		}
	}
}
