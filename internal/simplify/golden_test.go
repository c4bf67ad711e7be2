package simplify

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/rng"
)

// goldenOptions are the option sets TestSimplifyGolden runs every
// corpus formula under: everything on, the count pipeline's
// count-preserving set, a single round, and each pass switched off on
// its own, so a divergence names the pass behind it.
var goldenOptions = []struct {
	name string
	opts Options
}{
	{"all", Options{}},
	{"count", Options{DisablePure: true, DisableBVE: true}},
	{"one-round", Options{MaxRounds: 1}},
	{"no-units", Options{DisableUnits: true}},
	{"no-pure", Options{DisablePure: true}},
	{"no-subsume", Options{DisableSubsumption: true}},
	{"no-strengthen", Options{DisableStrengthen: true}},
	{"no-bve", Options{DisableBVE: true}},
}

// goldenSums holds, per corpus family, one SHA-256 per goldenOptions
// entry (in order) over every Result field of every formula in the
// family. The output of Simplify is a pure function of its input; any
// change to a pass that alters a clause order, a literal order, a
// forced value, an elimination or a statistic changes these.
var goldenSums = map[string][]string{
	"2sat-4sat": {
		"7550c68c7d49df6ebad79850bfecc861f6e560e8260a6c303dedb4490c89405a",
		"fb2af034e12bd1d6be583529ffdb3542cabd391edaf837c69cb018b9b8332ce2",
		"92230b0e96db5835974d6950f5232b9fd9eb35a4235eb5b042cd7e8ce120a62e",
		"8cf9b3090282fd9d0fa06212912dc81aac3b1d872d3300d226b761898de31b9e",
		"a43e2c44f481f171daf93a9838e50fa8551981164c98c30468d84ec8c25768fd",
		"efef5364504177e05d8d2789929fa9b4a5239ee5e0a661e0f1bb7f14fadbe09c",
		"2e1324325b67bc70e8368742e1510ac5c6adfb70a3d107fa2fe775eff5b1cadc",
		"98db09bdca8f65da1f37eadc124b3d5f2f52bf3cc37dede10ef7c3cc334a0fee",
	},
	"serve-cold": {
		"3657b593c727f5338e23464d690fc19d9983c1b1ec62e4ae6fd9e843e73308d1",
		"a710171c070365ba79f2a3f0862b6f64a2b8f701febc028961ec4b5873d21488",
		"f5edfd4b292aec8367f55d568a849a8ec8517654ce4e159b1e3d3812b24496b2",
		"3657b593c727f5338e23464d690fc19d9983c1b1ec62e4ae6fd9e843e73308d1",
		"56e7d451214e6e4b5634bb11296ec905f38c9f64348346a74dccb3b07253beb0",
		"1c23a550d3263531bbb7dec6f6ede7f3d4d48b5d5a47df8fa89b8b9773fa4878",
		"d82df3db512fa930510708d472a36905ebbd12b53f8777b5f04120f0dcf414cc",
		"2102f818eee639debe7bf66a2a343cc588f7968c5eba17505c1509e46b0c3f6b",
	},
	"paper": {
		"d83f39be4b1ceff97ebfb3399216875bb911c9990ab5ecc17ecb956076bf19e8",
		"a3590278b3355527527727e663c73d24f93bffd882828e43547800bb1b5bda89",
		"e07ca54b7fb9e630b2dfc24f4a00f9feb7ad48b3182de1ff656cdf9bba34db94",
		"dbfe3c7236cb949b8dffe8216d8a872bbb867d3eff1ba44edfba4d6d0c1822ec",
		"b9061de01e17bd059c542f918448c8577a6c35b2ce7906562180d1421e2d96d6",
		"2b21fc9ec0a2c4af743b8596dff19b4463b6da1dd34c288251e5937859e38318",
		"6a27cb0e348d1892c900399299def1b5202c4b67016d5e498be2d7d0a05b245f",
		"35401483429ef73b4c6d40e3d05aa16c8d5c9eaa95ec017917a58cf88201d626",
	},
	"random-3sat": {
		"1984cb056aa51f80cab67d5a7405d288f5f6827f4085b7692261091dc7cb9dc1",
		"3d549bc6775ab9a1abe93efed9601529992a9a3c110707a4d3de310d6f09458a",
		"492286f1a798cb5277a60a7239355d38beeeb7b393d38f5599afe437ee00c260",
		"f8220df79d166d955398155ef943b76f73f36c627781fda06cb26d3db4299810",
		"8ec75bd08b44d15bf9e64a5849e5e76d761f38857945152141d54cceaafbea28",
		"04f704b201d5cefe00a44dba993df02e58cc81dfdb7d351037d6ecfd53e38144",
		"6063c468ae4aabf22fe9fb6194d059494d5e192c09bb8118538bf4cb26f8e2a9",
		"ac8070d0f95e08a836e7cf8e612ef3b7218350e34a1bd54192cbb703a785a2de",
	},
	"mixed-k": {
		"6578f63133134f76a159c55b2860d15ba7c20bbc777b3d27aa8ce0dbc9d74931",
		"9c02f2075854b6b35f1f35978e10841cf60db2f1f02cf6ca7676a8eb12caa900",
		"5ef33584e05c333862adffb887bb80aa1641cf76bd68a0b0d5f7dacc23e9c683",
		"6acbb815c0ae1c6a18f2693db509f5fa1b013cba582e37b1686230f4d684a6fc",
		"48c86d4c27f804e8340df3579f3fdd092fad633a987c087b3298e030d7d29bdc",
		"f20853c732a0b07096d8e4a300e1d1ce83d956818b1e38e898627e0a8d301107",
		"bcf4b839fd7229415e3e30b9351dab1b094bd544a3d4fc3b8a51ae418968324c",
		"56360c7d5f093c8a84a3625883b784df67259aeaf7ff9cc809dcba962cb1a70f",
	},
}

// scrambled returns f with its variables permuted and the literals of
// every clause and the clauses themselves shuffled.
func scrambled(g *rng.Xoshiro256, f *cnf.Formula) *cnf.Formula {
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

// servingShape returns a scrambled disjoint union of the given number
// of planted 30-variable, 120-clause 3-SAT blocks.
func servingShape(g *rng.Xoshiro256, blocks int) *cnf.Formula {
	fs := make([]*cnf.Formula, blocks)
	for b := range fs {
		fs[b], _ = gen.PlantedKSAT(g, 30, 120, 3)
	}
	return scrambled(g, gen.DisjointUnion(fs...))
}

// mixedLength returns a random formula over n variables whose clauses
// have 1 to 4 distinct variables each, so units, duplicate clauses and
// conflicting units all occur.
func mixedLength(g *rng.Xoshiro256, n, m int) *cnf.Formula {
	f := cnf.New(n)
	for i := 0; i < m; i++ {
		k := 1 + g.Intn(min(4, n))
		f.Clauses = append(f.Clauses, gen.RandomKSAT(g, n, 1, k).Clauses[0])
	}
	return f
}

// goldenCorpus returns the seeded corpus, keyed by family.
func goldenCorpus() map[string][]*cnf.Formula {
	g := rng.New(2012)
	corpus := map[string][]*cnf.Formula{}
	for i := 0; i < 60; i++ {
		n := 3 + g.Intn(30)
		corpus["random-3sat"] = append(corpus["random-3sat"], gen.RandomKSAT(g, n, 1+g.Intn(6*n), 3))
	}
	for i := 0; i < 300; i++ {
		n := 1 + g.Intn(8)
		corpus["mixed-k"] = append(corpus["mixed-k"], mixedLength(g, n, 1+g.Intn(4*n+4)))
	}
	for i := 0; i < 40; i++ {
		n := 4 + g.Intn(12)
		corpus["2sat-4sat"] = append(corpus["2sat-4sat"],
			gen.RandomKSAT(g, n, 1+g.Intn(3*n), 2),
			gen.RandomKSAT(g, n, 1+g.Intn(10*n), 4))
	}
	for _, blocks := range []int{2, 3} {
		corpus["serve-cold"] = append(corpus["serve-cold"], servingShape(g, blocks))
	}
	corpus["paper"] = []*cnf.Formula{
		gen.PaperSAT(), gen.PaperUNSAT(), gen.PaperExample5(),
		gen.PaperExample6(), gen.PaperExample7(),
		gen.Pigeonhole(3), gen.Pigeonhole(4),
	}
	gen.AllSAT2Var(4, func(f *cnf.Formula) bool {
		corpus["paper"] = append(corpus["paper"], f)
		return true
	})
	return corpus
}

// hashResult writes every field of r, and the input f after the call
// (Simplify must not modify it), to h.
func hashResult(h hash.Hash, f *cnf.Formula, r *Result) {
	clauses := func(cs []cnf.Clause) {
		for _, c := range cs {
			fmt.Fprint(h, "(")
			for _, l := range c {
				fmt.Fprintf(h, " %d", l.DIMACS())
			}
			fmt.Fprint(h, " )")
		}
		fmt.Fprintln(h)
	}
	fmt.Fprint(h, "input ")
	clauses(f.Clauses)
	type fields Stats // every field, not Stats.String's summary
	fmt.Fprintf(h, "unsat %t stats %+v\nforced", r.ProvedUnsat, fields(r.Stats))
	for _, v := range r.Forced {
		fmt.Fprintf(h, " %d", v)
	}
	fmt.Fprint(h, "\nvarmap")
	for _, v := range r.VarMap {
		fmt.Fprintf(h, " %d", v)
	}
	fmt.Fprintln(h)
	if r.F != nil {
		fmt.Fprintf(h, "F %d ", r.F.NumVars)
		clauses(r.F.Clauses)
	}
	for _, e := range r.Eliminations {
		fmt.Fprintf(h, "elim %d ", e.V)
		clauses(e.Clauses)
	}
}

// TestSimplifyGolden pins Simplify's complete output over a seeded
// corpus: the reduced formula with its clause and literal order, the
// variable map, forced values, eliminations, statistics and the UNSAT
// flag. Verdicts, models, cache keys and stored records downstream all
// depend on these being stable.
func TestSimplifyGolden(t *testing.T) {
	corpus := goldenCorpus()
	for family, want := range goldenSums {
		for oi, o := range goldenOptions {
			h := sha256.New()
			for _, f := range corpus[family] {
				hashResult(h, f, Simplify(f, o.opts))
			}
			got := hex.EncodeToString(h.Sum(nil))
			if oi >= len(want) || got != want[oi] {
				t.Errorf("%s/%s: sha256 %s", family, o.name, got)
			}
		}
	}
}
