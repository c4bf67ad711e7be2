// Package walksat implements the WalkSAT stochastic local search
// procedure, the paper's representative of "incomplete or stochastic
// heuristics" (references [8], [9]).
//
// It walks over total assignments, flipping one variable of a random
// unsatisfied clause at a time to reduce the number of unsatisfied
// clauses. It can report SAT quickly but can never certify UNSAT, which
// is exactly the asymmetry the NBL-SAT single-operation check claims to
// remove; experiment E10 places the solver styles side by side.
//
// The search keeps the standard WalkSAT bookkeeping, built once per
// solve over the variables that occur: one occurrence list per literal,
// a count of true literals per clause and the set of unsatisfied
// clauses. A flip then updates only the clauses holding the flipped
// variable, and a break count reads one occurrence list.
package walksat

import (
	"context"
	"math/bits"

	"repro/internal/cnf"
	"repro/internal/rng"
)

// Options configures a local-search run.
type Options struct {
	// MaxFlips bounds the flips per restart. Default 10_000.
	MaxFlips int
	// Restarts is the number of random restarts. Default 10.
	Restarts int
	// NoiseP is the WalkSAT random-walk probability in [0,1]:
	// with probability NoiseP a random variable of a random unsatisfied
	// clause is flipped; otherwise the best variable. Default 0.5.
	NoiseP float64
	// Seed seeds the search.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.MaxFlips == 0 {
		o.MaxFlips = 10_000
	}
	if o.Restarts == 0 {
		o.Restarts = 10
	}
	if o.NoiseP == 0 {
		o.NoiseP = 0.5
	}
	return o
}

// Stats counts search effort.
type Stats struct {
	Flips    int64
	Restarts int64
}

// Result of a local-search run.
type Result struct {
	// Found reports whether a model was discovered. false means
	// "unknown", never "unsatisfiable".
	Found bool
	// Assignment is the model when Found.
	Assignment cnf.Assignment
	Stats      Stats
}

// Solve runs WalkSAT on f.
func Solve(f *cnf.Formula, opts Options) Result {
	r, _ := SolveCtx(context.Background(), f, opts)
	return r
}

// SolveCtx is Solve with cancellation: the flip loop polls ctx every 64
// flips and returns the partial Stats with ctx.Err() when the context
// ends. A non-nil error always comes with Found == false; a literal
// outside 1..f.NumVars is one.
func SolveCtx(ctx context.Context, f *cnf.Formula, opts Options) (Result, error) {
	if err := f.Validate(); err != nil {
		return Result{}, err
	}
	for _, c := range f.Clauses {
		if len(c) == 0 {
			return Result{}, nil // empty clause: unknown for local search
		}
	}
	if len(f.Clauses) == 0 {
		// Trivially satisfied: no constraints.
		return Result{Found: true, Assignment: cnf.NewAssignment(f.NumVars)}, nil
	}

	o := opts.withDefaults()
	g := rng.New(o.Seed)
	x := newIndex(f)
	a := cnf.NewAssignment(f.NumVars)
	var st Stats
	for r := 0; r < o.Restarts; r++ {
		st.Restarts++
		drawAssignment(g, a)
		x.reset(a)
		for flip := 0; flip < o.MaxFlips; flip++ {
			if flip&63 == 0 {
				if err := ctx.Err(); err != nil {
					st.Flips += int64(flip)
					return Result{Stats: st}, err
				}
			}
			if x.nUnsat == 0 {
				st.Flips += int64(flip)
				return Result{Found: true, Assignment: a, Stats: st}, nil
			}
			x.flip(x.pick(g, o.NoiseP))
		}
		st.Flips += int64(o.MaxFlips)
	}
	return Result{Stats: st}, nil
}

// drawAssignment gives each of a's variables 1..n a fresh uniform
// value, one draw per variable in order, whether it occurs or not.
func drawAssignment(g *rng.Xoshiro256, a cnf.Assignment) {
	for v := 1; v < len(a); v++ {
		if g.Bool() {
			a[v] = cnf.True
		} else {
			a[v] = cnf.False
		}
	}
}

// index is the search state over the variables that occur, renamed
// 0, 1, ... (dense literal 2i is variable i, 2i+1 its negation). Every
// array it builds is sized by the literals the formula holds, never by
// its declared variable count; only the assignment it searches is.
type index struct {
	vars  []cnf.Var // vars[i]: the formula's name for variable i
	lits  []int32   // clause c's literals, duplicates kept: lits[start[c]:start[c+1]]
	start []int32
	// The clauses holding dense literal d, ascending, each once:
	// occ[occAt[d]:occAt[d+1]]. A tautology is in no list.
	occ    []int32
	occAt  []int32
	taut   []bool         // clause c holds a literal and its negation
	a      cnf.Assignment // the search's assignment, in the formula's names
	nTrue  []int32        // clause c's distinct true literals
	unsat  []uint64       // bit c: clause c has none
	nUnsat int
}

// newIndex builds the index for f, which must hold no empty clause and
// no literal outside 1..f.NumVars.
func newIndex(f *cnf.Formula) *index {
	lits, vars := f.DenseLits()
	m := len(f.Clauses)
	x := &index{
		vars:  vars,
		lits:  lits,
		start: make([]int32, m+1),
		occAt: make([]int32, 2*len(vars)+1),
		taut:  make([]bool, m),
		nTrue: make([]int32, m),
		unsat: make([]uint64, (m+63)/64),
	}
	// Each clause's distinct literals, first occurrences in order; a
	// tautology keeps none.
	seen := make([]int32, 2*len(vars)) // 1 + the last clause holding d
	dist := make([]int32, 0, len(lits))
	distAt := make([]int32, m+1)
	for c, cl := range f.Clauses {
		x.start[c+1] = x.start[c] + int32(len(cl))
		at, stamp := len(dist), int32(c+1)
		for _, d := range lits[x.start[c]:x.start[c+1]] {
			if seen[d^1] == stamp {
				x.taut[c] = true
			}
			if seen[d] != stamp {
				seen[d] = stamp
				dist = append(dist, d)
			}
		}
		if x.taut[c] {
			dist = dist[:at]
		}
		distAt[c+1] = int32(len(dist))
	}
	for _, d := range dist {
		x.occAt[d+1]++
	}
	for d := range 2 * len(vars) {
		x.occAt[d+1] += x.occAt[d]
	}
	x.occ = make([]int32, len(dist))
	next := seen // reused: next[d] is where d's next clause goes
	copy(next, x.occAt)
	for c := range m {
		for _, d := range dist[distAt[c]:distAt[c+1]] {
			x.occ[next[d]] = int32(c)
			next[d]++
		}
	}
	return x
}

// reset makes a the search's assignment and recounts every clause.
func (x *index) reset(a cnf.Assignment) {
	x.a = a
	clear(x.nTrue)
	for i := range x.vars {
		for _, c := range x.occurrences(x.trueLit(int32(i))) {
			x.nTrue[c]++
		}
	}
	clear(x.unsat)
	x.nUnsat = 0
	for c, n := range x.nTrue {
		if n == 0 && !x.taut[c] {
			x.unsat[c>>6] |= 1 << (c & 63)
			x.nUnsat++
		}
	}
}

// trueLit returns variable i's literal that is true now.
func (x *index) trueLit(i int32) int32 {
	if x.a[x.vars[i]] == cnf.True {
		return i << 1
	}
	return i<<1 | 1
}

func (x *index) occurrences(d int32) []int32 { return x.occ[x.occAt[d]:x.occAt[d+1]] }

// breakCount returns the standard (SKC) break count of flipping
// variable i: the clauses whose only true literal is i's, which the
// flip would leave unsatisfied. It never counts newly fixed clauses, so
// it is non-negative; a zero break count is WalkSAT's "freebie" move.
func (x *index) breakCount(i int32) int {
	n := 0
	for _, c := range x.occurrences(x.trueLit(i)) {
		if x.nTrue[c] == 1 {
			n++
		}
	}
	return n
}

// pick implements the SKC WalkSAT move: pick a random unsatisfied
// clause; if some variable has break count 0, flip it; otherwise with
// probability p flip a random clause variable, else the minimum-break
// variable (the first in clause order on a tie). The clause is the
// g.Intn(nUnsat)-th unsatisfied one in clause order.
func (x *index) pick(g *rng.Xoshiro256, p float64) int32 {
	c := x.nthUnsat(g.Intn(x.nUnsat))
	cl := x.lits[x.start[c]:x.start[c+1]]
	bestV, bestBreak := int32(0), 1<<30
	for _, d := range cl {
		if b := x.breakCount(d >> 1); b < bestBreak {
			bestV, bestBreak = d>>1, b
		}
	}
	if bestBreak == 0 || g.Float64() >= p {
		return bestV
	}
	return cl[g.Intn(len(cl))] >> 1
}

// nthUnsat returns the index of the r-th (from 0) unsatisfied clause.
func (x *index) nthUnsat(r int) int {
	for w, word := range x.unsat {
		if n := bits.OnesCount64(word); r >= n {
			r -= n
			continue
		}
		for ; r > 0; r-- {
			word &= word - 1
		}
		return w<<6 | bits.TrailingZeros64(word)
	}
	panic("walksat: unsatisfied clause count out of step with the set")
}

// flip flips variable i, updating only the clauses that hold it.
func (x *index) flip(i int32) {
	t := x.trueLit(i)
	for _, c := range x.occurrences(t) {
		if x.nTrue[c]--; x.nTrue[c] == 0 {
			x.unsat[c>>6] |= 1 << (c & 63)
			x.nUnsat++
		}
	}
	for _, c := range x.occurrences(t ^ 1) {
		if x.nTrue[c]++; x.nTrue[c] == 1 {
			x.unsat[c>>6] &^= 1 << (c & 63)
			x.nUnsat--
		}
	}
	x.a[x.vars[i]] = x.a[x.vars[i]].Not()
}
