package walksat

import (
	"context"
	"slices"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/rng"
)

// referenceSolveCtx is the search SolveCtx ran before the incremental
// index: every flip rescans the whole formula, once for the unsatisfied
// clauses and once per candidate for its break count. It is the oracle
// the index must match draw for draw. Its checks before the search are
// SolveCtx's: the empty-clause check runs ahead of the trivial-SAT
// shortcut, and a literal outside 1..NumVars is an error.
func referenceSolveCtx(ctx context.Context, f *cnf.Formula, opts Options) (Result, error) {
	if err := f.Validate(); err != nil {
		return Result{}, err
	}
	o := opts.withDefaults()
	g := rng.New(o.Seed)
	n := f.NumVars
	for _, c := range f.Clauses {
		if len(c) == 0 {
			return Result{}, nil // empty clause: unknown for local search
		}
	}
	if n == 0 || f.NumClauses() == 0 {
		// Trivially satisfied: no constraints.
		return Result{Found: true, Assignment: cnf.NewAssignment(n)}, nil
	}

	var st Stats
	for r := 0; r < o.Restarts; r++ {
		st.Restarts++
		a := randomAssignment(g, n)
		for flip := 0; flip < o.MaxFlips; flip++ {
			if flip&63 == 0 {
				if err := ctx.Err(); err != nil {
					st.Flips += int64(flip)
					return Result{Stats: st}, err
				}
			}
			unsat := unsatClauses(f, a)
			if len(unsat) == 0 {
				st.Flips += int64(flip)
				return Result{Found: true, Assignment: a, Stats: st}, nil
			}
			v := walksatPick(f, a, unsat, g, o.NoiseP)
			flipVar(a, v)
		}
		st.Flips += int64(o.MaxFlips)
	}
	return Result{Stats: st}, nil
}

func randomAssignment(g *rng.Xoshiro256, n int) cnf.Assignment {
	a := cnf.NewAssignment(n)
	for v := 1; v <= n; v++ {
		if g.Bool() {
			a.Set(cnf.Var(v), cnf.True)
		} else {
			a.Set(cnf.Var(v), cnf.False)
		}
	}
	return a
}

func flipVar(a cnf.Assignment, v cnf.Var) {
	a.Set(v, a.Get(v).Not())
}

func unsatClauses(f *cnf.Formula, a cnf.Assignment) []int {
	var out []int
	for i, c := range f.Clauses {
		if a.EvalClause(c) != cnf.True {
			out = append(out, i)
		}
	}
	return out
}

// breakCount returns the standard (SKC) break count of flipping v: the
// number of clauses that are satisfied now but would become unsatisfied.
// It never counts newly-fixed clauses, so it is non-negative; a zero
// break count is WalkSAT's "freebie" move.
func breakCount(f *cnf.Formula, a cnf.Assignment, v cnf.Var) int {
	count := 0
	for _, c := range f.Clauses {
		if a.EvalClause(c) != cnf.True {
			continue
		}
		flipVar(a, v)
		nowUnsat := a.EvalClause(c) != cnf.True
		flipVar(a, v)
		if nowUnsat {
			count++
		}
	}
	return count
}

// walksatPick implements the SKC WalkSAT move: pick a random unsatisfied
// clause; if some variable has break-count 0, flip it; otherwise with
// probability p flip a random clause variable, else the minimum-break
// variable.
func walksatPick(f *cnf.Formula, a cnf.Assignment, unsat []int, g *rng.Xoshiro256, p float64) cnf.Var {
	c := f.Clauses[unsat[g.Intn(len(unsat))]]
	bestV, bestBreak := cnf.Var(0), 1<<30
	for _, l := range c {
		b := breakCount(f, a, l.Var())
		if b < bestBreak {
			bestV, bestBreak = l.Var(), b
		}
	}
	if bestBreak == 0 || g.Float64() >= p {
		return bestV
	}
	return c[g.Intn(len(c))].Var()
}

// checkMatchesReference fails t unless SolveCtx and the oracle return
// the same Found, Assignment, Stats and error on f under opts.
func checkMatchesReference(t *testing.T, f *cnf.Formula, opts Options) {
	t.Helper()
	got, gotErr := SolveCtx(context.Background(), f, opts)
	want, wantErr := referenceSolveCtx(context.Background(), f, opts)
	if (gotErr == nil) != (wantErr == nil) || got.Found != want.Found ||
		!slices.Equal(got.Assignment, want.Assignment) || got.Stats != want.Stats {
		t.Fatalf("%+v on %s (%d vars):\n got %v %v %+v err %v\nwant %v %v %+v err %v",
			opts, f, f.NumVars, got.Found, got.Assignment, got.Stats, gotErr,
			want.Found, want.Assignment, want.Stats, wantErr)
	}
	if got.Found && !got.Assignment.Satisfies(f) {
		t.Fatalf("returned non-model %s for %s", got.Assignment, f)
	}
}

// TestWalksatMatchesReference runs the index and the oracle over random,
// planted and paper formulas, with duplicate literals, tautologies and
// declared variables that never occur, under several seeds and option
// sets.
func TestWalksatMatchesReference(t *testing.T) {
	g := rng.New(20)
	var corpus []*cnf.Formula
	for _, f := range []*cnf.Formula{
		gen.PaperSAT(), gen.PaperUNSAT(), gen.PaperExample5(),
		gen.PaperExample6(), gen.PaperExample7(), gen.Pigeonhole(3),
	} {
		corpus = append(corpus, f)
	}
	for i := 0; i < 40; i++ {
		n := 3 + g.Intn(18)
		m := 1 + g.Intn(5*n)
		f := gen.RandomKSAT(g, n, m, 1+g.Intn(3))
		if i%2 == 0 {
			f, _ = gen.PlantedKSAT(g, n, m, 3)
		}
		corpus = append(corpus, f)
	}
	for i := 0; i < 40; i++ {
		// Duplicate literals, tautologies and unused declared variables.
		f := gen.RandomKSAT(g, 4+g.Intn(8), 4+g.Intn(24), 3)
		for j := range f.Clauses {
			c := slices.Clone(f.Clauses[j])
			switch g.Intn(4) {
			case 0:
				c = append(c, c[g.Intn(len(c))])
			case 1:
				c = append(c, c[g.Intn(len(c))].Negate())
			}
			f.Clauses[j] = c
		}
		f.NumVars += g.Intn(4)
		corpus = append(corpus, f)
	}
	for _, opts := range []Options{
		{MaxFlips: 7, Restarts: 3},
		{MaxFlips: 65, Restarts: 4, NoiseP: 0.05},
		{MaxFlips: 200, Restarts: 2, NoiseP: 1},
		{MaxFlips: 500, Restarts: 2},
	} {
		for _, f := range corpus {
			for seed := uint64(0); seed < 4; seed++ {
				opts.Seed = seed
				checkMatchesReference(t, f, opts)
			}
		}
	}
	// The default budget, on the paper's instances.
	for _, f := range corpus[:6] {
		checkMatchesReference(t, f, Options{Seed: 5})
	}
}

// decodeFormula reads a formula from fuzz bytes: the first byte picks a
// declared count of 1..24 variables; then each clause is a length byte
// (0 to 5 literals) followed by one byte per literal (variable and
// sign), so duplicate literals, tautologies, empty clauses and unused
// variables all occur. At most 40 clauses are read; a clause cut short
// by the end of the data is kept as far as it goes.
func decodeFormula(data []byte) *cnf.Formula {
	if len(data) == 0 {
		return cnf.New(1)
	}
	f := cnf.New(1 + int(data[0])%24)
	data = data[1:]
	for len(data) > 0 && f.NumClauses() < 40 {
		k := int(data[0]) % 6
		data = data[1:]
		c := cnf.Clause{}
		for ; k > 0 && len(data) > 0; k-- {
			c = append(c, cnf.NewLit(cnf.Var(1+int(data[0]>>1)%f.NumVars), data[0]&1 == 1))
			data = data[1:]
		}
		f.Clauses = append(f.Clauses, c)
	}
	return f
}

// FuzzWalksatMatchesReference holds SolveCtx to the oracle on arbitrary
// small formulas and budgets: the same Found, Assignment and Stats.
func FuzzWalksatMatchesReference(f *testing.F) {
	for _, seed := range []struct {
		data                   []byte
		seed                   uint64
		flips, restarts, noise uint8
	}{
		{[]byte{1, 2, 0, 2, 2, 0, 3, 2, 1, 2, 2, 1, 3}, 1, 63, 2, 128}, // (x1+x2)(x1+!x2)(!x1+x2)(!x1+!x2)
		{[]byte{2, 1, 0, 2, 2, 5, 2, 1, 4, 3, 0, 3, 4}, 2, 10, 1, 0},   // (x1)(x2+!x3)(!x1+x3)(x1+!x2+x3)
		{[]byte{9, 3, 4, 4, 6, 2, 8, 9, 3, 2, 2, 10}, 3, 5, 3, 255},    // (x3+x3+x4)(x5+!x5)(x2+x2+x6): duplicates, a tautology
		{[]byte{0, 0}, 4, 1, 1, 1},                                     // p cnf 1 1 with the empty clause
	} {
		f.Add(seed.data, seed.seed, seed.flips, seed.restarts, seed.noise)
	}
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, flips, restarts, noise uint8) {
		checkMatchesReference(t, decodeFormula(data), Options{
			MaxFlips: 1 + int(flips)%64,
			Restarts: 1 + int(restarts)%4,
			NoiseP:   float64(noise) / 255,
			Seed:     seed,
		})
	})
}

// BenchmarkSolve times one search on planted 30-variable, 120-clause
// 3-SAT blocks, the shape of a serving component, on the index and on
// the oracle.
func BenchmarkSolve(b *testing.B) {
	g := rng.New(7)
	fs := make([]*cnf.Formula, 16)
	for i := range fs {
		fs[i], _ = gen.PlantedKSAT(g, 30, 120, 3)
	}
	for _, s := range []struct {
		name  string
		solve func(context.Context, *cnf.Formula, Options) (Result, error)
	}{{"index", SolveCtx}, {"reference", referenceSolveCtx}} {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if r, _ := s.solve(context.Background(), fs[i%len(fs)], Options{Seed: uint64(i)}); !r.Found {
					b.Fatal("planted block not solved")
				}
			}
		})
	}
}
