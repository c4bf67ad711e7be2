// Package count implements exact model counting (#SAT) for CNF formulas.
//
// The NBL-SAT theory predicts E[S_N] = K' · sigma^(2nm), where K' is the
// clause-cover-weighted model count (each satisfying assignment counted
// once per way of picking one satisfied literal from every clause). This
// package supplies both plain and weighted counts as ground truth for the
// Monte-Carlo engine's convergence tests and for the K-scaling experiment
// (E5), plus the SAT/UNSAT oracle used in solver cross-validation.
//
// Two algorithms are provided: exhaustive enumeration (simple, used to
// validate everything else) and a DPLL-style counter with unit
// propagation that comfortably handles the instance sizes any NBL
// simulation can reach. The counter propagates and branches as package
// dpll does, on cnf.Assignment's Propagate and FirstFree, without its
// pure-literal step, which would drop the models on a literal's other
// side. Count and Weighted both number the variables that occur
// densely (cnf.Formula.DenseLits), split the formula with
// simplify.Decompose, multiply the component results and shift in a
// factor of 2 per declared variable no clause mentions, so their cost
// follows the literals, not the declared variable count. Count runs the
// DPLL counter on each component; Weighted enumerates each one, and is
// the only production loop that computes K' (core's exact engine calls
// it too).
package count

import (
	"context"
	"fmt"
	"math/big"

	"repro/internal/cnf"
	"repro/internal/simplify"
)

// maxBruteVars bounds exhaustive enumeration: 2^28 evaluations is the
// most we are willing to spend in a test helper.
const maxBruteVars = 28

// Brute returns the number of satisfying assignments by exhaustive
// enumeration. It panics if f has more than 28 variables.
func Brute(f *cnf.Formula) uint64 {
	n := f.NumVars
	if n > maxBruteVars {
		panic(fmt.Sprintf("count: Brute limited to %d variables, got %d", maxBruteVars, n))
	}
	var count uint64
	for bits := uint64(0); bits < 1<<n; bits++ {
		if cnf.AssignmentFromBits(bits, n).Satisfies(f) {
			count++
		}
	}
	return count
}

// WeightedBrute returns the clause-cover-weighted model count K':
//
//	K' = sum over satisfying assignments a of
//	     prod over clauses c of (number of literals of c true under a)
//
// This is exactly the coefficient in E[S_N] = K' · sigma^(2nm) for the
// NBL encoding, because Z_j contains one cube-subspace term per literal
// of clause j, so a minterm satisfied via t literals of clause j appears
// t times in Z_j's superposition. It panics if f has more than 28
// variables. The result is exact (big.Int) since weights multiply.
func WeightedBrute(f *cnf.Formula) *big.Int {
	n := f.NumVars
	if n > maxBruteVars {
		panic(fmt.Sprintf("count: WeightedBrute limited to %d variables, got %d", maxBruteVars, n))
	}
	total := new(big.Int)
	w := new(big.Int)
	for bits := uint64(0); bits < 1<<n; bits++ {
		a := cnf.AssignmentFromBits(bits, n)
		w.SetInt64(1)
		sat := true
		for _, c := range f.Clauses {
			t := a.SatisfiedLiterals(c)
			if t == 0 {
				sat = false
				break
			}
			w.Mul(w, big.NewInt(int64(t)))
		}
		if sat {
			total.Add(total, w)
		}
	}
	return total
}

// CountStats reports the work a DPLL count performed, the counting
// analogue of a decide engine's sample/flip counters.
type CountStats struct {
	// Decisions counts branching choices taken by the DPLL recursion.
	Decisions int64
	// Propagations counts variables forced by unit propagation.
	Propagations int64
}

// counter threads cancellation and work counters through the DPLL
// recursion without changing the algorithm: poll() is checked on every
// recursion step but only consults the context every 1024 calls, so
// cancellation costs one atomic-free counter increment per node.
type counter struct {
	ctx  context.Context
	tick int
	st   CountStats
	err  error
}

// poll reports whether the count may continue. Once it returns false
// every in-flight recursion unwinds fast: the partial results it
// returns are discarded because CountContext surfaces the error.
func (c *counter) poll() bool {
	if c.err != nil {
		return false
	}
	c.tick++
	if c.tick&1023 == 0 {
		if err := c.ctx.Err(); err != nil {
			c.err = err
			return false
		}
	}
	return true
}

// Count returns the exact number of satisfying assignments of f using
// DPLL with unit propagation and connected-component decomposition.
// Variables that appear in no clause contribute a factor of 2 each.
func Count(f *cnf.Formula) *big.Int {
	// context.Background never cancels, so the error is impossible.
	result, _, _ := CountContext(context.Background(), f)
	return result
}

// CountContext is Count with cancellation and work accounting: the
// returned stats are valid even on error, and a context cancellation
// surfaces as ctx.Err() with an unusable (nil) count. This is the entry
// point the counting engines use; Count keeps the oracle-style
// signature for tests.
func CountContext(ctx context.Context, f *cnf.Formula) (*big.Int, CountStats, error) {
	c := &counter{ctx: ctx}
	g, hasEmpty := f.Simplify()
	if hasEmpty {
		return new(big.Int), c.st, nil
	}
	comps, free := split(g)
	result := big.NewInt(1)
	for _, comp := range comps {
		n := c.countDPLL(comp.F, cnf.NewAssignment(comp.F.NumVars), 0)
		if c.err != nil {
			return nil, c.st, c.err
		}
		if result.Mul(result, n).Sign() == 0 {
			return result, c.st, nil
		}
	}
	return result.Lsh(result, uint(free)), c.st, nil
}

// split numbers the variables that occur in f 1, 2, 3, ... in the
// order they first occur and splits the renamed formula with
// simplify.Decompose. free counts the declared variables no clause
// mentions, each a factor of 2 in any count. Both the renaming and the
// decomposition are sized by the literals f holds, never by its
// declared variable count.
func split(f *cnf.Formula) (comps []*simplify.Component, free int) {
	lits, vars := f.DenseLits()
	g := cnf.New(len(vars))
	g.Clauses = make([]cnf.Clause, len(f.Clauses))
	arena := make(cnf.Clause, len(lits))
	for i, d := range lits {
		arena[i] = cnf.NewLit(cnf.Var(d>>1+1), d&1 == 1)
	}
	for i, c := range f.Clauses {
		g.Clauses[i], arena = arena[:len(c):len(c)], arena[len(c):]
	}
	return simplify.Decompose(g), max(f.NumVars-len(vars), 0)
}

// countDPLL counts the models of h that extend a, in which assigned
// variables are set. The count includes the 2^free factor for the
// variables left free once every clause is satisfied.
func (ct *counter) countDPLL(h *cnf.Formula, a cnf.Assignment, assigned int) *big.Int {
	if !ct.poll() {
		return new(big.Int)
	}
	trail, conflict := a.Propagate(h.Clauses, nil)
	ct.st.Propagations += int64(len(trail))
	defer func() {
		for _, v := range trail {
			a.Set(v, cnf.Unassigned)
		}
	}()
	if conflict {
		return new(big.Int)
	}
	assigned += len(trail)
	branch, open := a.FirstFree(h.Clauses)
	if !open {
		return new(big.Int).Lsh(big.NewInt(1), uint(h.NumVars-assigned))
	}

	total := new(big.Int)
	ct.st.Decisions++
	for _, val := range []cnf.Value{cnf.True, cnf.False} {
		a.Set(branch, val)
		total.Add(total, ct.countDPLL(h, a, assigned+1))
		a.Set(branch, cnf.Unassigned)
	}
	return total
}
