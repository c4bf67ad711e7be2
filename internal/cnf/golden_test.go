// Golden canonical fingerprints, pinned. The fingerprint is the key
// the verdict cache, the durable verdict store, and the fleet
// router's placement all share — a silent change to canonicalization
// would invalidate every persisted verdict file and reshuffle fleet
// placement, so any such change must show up here as a deliberate,
// reviewed golden update (and a store-format note), never as drift.
//
// External test package: the DIMACS files exercise the same
// dimacs -> cnf path every production submission takes.
package cnf_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/cnf"
	"repro/internal/dimacs"
	"repro/internal/gen"
	"repro/internal/rng"
)

func TestGoldenCanonicalFingerprints(t *testing.T) {
	cases := []struct {
		file string // repo-root testdata path
		n, m int
		fp   string
	}{
		// The paper's S_SAT in SATLIB dialect.
		{"paper-sat-satlib.cnf", 2, 4,
			"7a5a1120b19ca2cbdc74bdc2ad83f2a41d6e329895d2e57ba84e6907904685b4"},
		// The paper's S_UNSAT.
		{"paper-unsat.cnf", 2, 4,
			"43f75e646717b1a3655d97fc87b88d6bd6d9814127cf875f4be3321e0da23de8"},
		// SATLIB-style planted 3-SAT (n=8, m=24).
		{"uf8-satlib.cnf", 8, 24,
			"549c2a9b748a51ed29119a5368eb22b44e1e060637469ffde07871f14fd3c11d"},
		// uf8 under the renaming 1<->5, 2<->7, 3<->6, 4<->8: different
		// bytes, identical fingerprint — the property the fleet's
		// cross-node cache hits stand on.
		{"uf8-renamed.cnf", 8, 24,
			"549c2a9b748a51ed29119a5368eb22b44e1e060637469ffde07871f14fd3c11d"},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("..", "..", "testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			f, err := dimacs.ReadString(string(data))
			if err != nil {
				t.Fatal(err)
			}
			if f.NumVars != tc.n || f.NumClauses() != tc.m {
				t.Fatalf("geometry (%d, %d), want (%d, %d)",
					f.NumVars, f.NumClauses(), tc.n, tc.m)
			}
			if got := cnf.Canonicalize(f).Fingerprint(); got != tc.fp {
				t.Errorf("fingerprint drifted:\ngot  %s\nwant %s\n"+
					"(a deliberate canonicalization change must update this golden "+
					"AND bump the verdict-store compatibility note)", got, tc.fp)
			}
		})
	}
}

// canonGoldenSums holds, per canonCorpus family, the SHA-256 that
// TestCanonicalizeGolden computes over every formula of the family,
// recorded from the map-and-sort.Slice Canonicalize that the flat-array
// one replaced.
var canonGoldenSums = map[string]string{
	"messy":       "4ac6e01478b43b2cd782fb325cb60c5fabcf61c58f8526928a3dd1edf95910b4",
	"random-3sat": "7b9ae0f5aad8b3f8611ec9772ae6acfb9fd72949dfb6241b6ec3407541e8fe08",
	"symmetric":   "16aba3c54f6da1e1afc98ee5d0958078a54c2e1266b00cc42be55eb5a9d3196a",
}

// messyClauses returns m random clauses over variables 1..n with every
// case Canonicalize normalizes: repeated literals, a literal next to
// its negation (in either order), empty clauses, and later copies of
// earlier clauses with their literals shuffled.
func messyClauses(g *rng.Xoshiro256, n, m int) []cnf.Clause {
	var cs []cnf.Clause
	for len(cs) < m {
		if len(cs) > 0 && g.Intn(6) == 0 {
			c := slices.Clone(cs[g.Intn(len(cs))])
			g.Shuffle(len(c), func(a, b int) { c[a], c[b] = c[b], c[a] })
			cs = append(cs, c)
			continue
		}
		c := cnf.Clause{}
		if g.Intn(25) != 0 {
			for k := 1 + g.Intn(5); k > 0; k-- {
				c = append(c, cnf.NewLit(cnf.Var(1+g.Intn(n)), g.Bool()))
			}
		}
		if len(c) > 0 && g.Intn(5) == 0 {
			c = slices.Insert(c, g.Intn(len(c)+1), c[g.Intn(len(c))])
		}
		if len(c) > 0 && g.Intn(7) == 0 {
			c = slices.Insert(c, g.Intn(len(c)+1), c[g.Intn(len(c))].Negate())
		}
		cs = append(cs, c)
	}
	return cs
}

// canonCorpus returns the seeded corpus of TestCanonicalizeGolden, keyed
// by family. Formulas declare up to 200 variables, some of which never
// occur, and every random formula is followed by a twin (twinOf).
func canonCorpus() map[string][]*cnf.Formula {
	g := rng.New(1812)
	corpus := map[string][]*cnf.Formula{}
	for i := 0; i < 150; i++ {
		n := 1 + g.Intn(200)
		f := &cnf.Formula{NumVars: n + g.Intn(3), Clauses: messyClauses(g, n, g.Intn(3*n+5))}
		corpus["messy"] = append(corpus["messy"], f, twinOf(g, f))
	}
	for i := 0; i < 60; i++ {
		n := 3 + g.Intn(60)
		f := gen.RandomKSAT(g, n, 1+g.Intn(5*n), 3)
		corpus["random-3sat"] = append(corpus["random-3sat"], f, twinOf(g, f))
	}
	corpus["symmetric"] = []*cnf.Formula{
		gen.PaperSAT(), gen.PaperUNSAT(), gen.PaperExample5(),
		gen.PaperExample6(), gen.PaperExample7(),
		gen.Pigeonhole(3), gen.Pigeonhole(4), gen.ExactlyK(5, 2),
		cnf.New(0), cnf.New(7),
		{NumVars: 3, Clauses: []cnf.Clause{{}}},
		{NumVars: 3, Clauses: []cnf.Clause{{}, {}, {cnf.Neg(2)}, {}}},
		cnf.FromClauses([]int{-3, 3, 1}, []int{3, -3}, []int{2, -1, 1}),
		cnf.FromClauses([]int{1, 2}, []int{3, 4}, []int{1, 2, 3, 4}),
	}
	gen.AllSAT2Var(3, func(f *cnf.Formula) bool {
		corpus["symmetric"] = append(corpus["symmetric"], f)
		return true
	})
	return corpus
}

// TestCanonicalizeGolden pins Canonicalize's whole output over a seeded
// corpus: the canonical formula with its clause and literal order, the
// fingerprint, the map back to the original variables and the length
// of a model FromCanonical returns, with the input after the call
// (Canonicalize must not modify it).
func TestCanonicalizeGolden(t *testing.T) {
	for family, fs := range canonCorpus() {
		h := sha256.New()
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
		for _, f := range fs {
			c := cnf.Canonicalize(f)
			fmt.Fprintf(h, "input %d ", f.NumVars)
			clauses(f.Clauses)
			fmt.Fprintf(h, "canonical %d ", c.F.NumVars)
			clauses(c.F.Clauses)
			fmt.Fprintf(h, "fp %s toOrig %v model %d\n", c.Fingerprint(), c.ToOrig(),
				len(c.FromCanonical(cnf.NewAssignment(c.F.NumVars))))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != canonGoldenSums[family] {
			t.Errorf("%s: sha256 %s", family, got)
		}
	}
}
