package simplify

import (
	"slices"

	"repro/internal/cnf"
)

// Bounded variable elimination (NiVER-style): a variable v with
// positive occurrences P and negative occurrences N can be resolved
// away — P∪N is replaced by the set R of non-tautological resolvents of
// every (p, n) pair — and the result is equisatisfiable. The pass is
// *bounded*: v is eliminated only when |R| ≤ |P| + |N| (the clause
// count never grows) and |P|·|N| stays under a small work cap, the
// regime where elimination is always a win for the NBL engines (n
// shrinks by one, m does not grow, so n·m strictly drops).
//
// Eliminations are recorded on Result.Eliminations so Reconstruct can
// extend a model of the reduced formula back over the eliminated
// variables.

// maxResolvePairs caps |P|·|N| per candidate so a variable occurring in
// half the clauses cannot make the pass quadratic in m.
const maxResolvePairs = 64

// Elimination records one variable eliminated by resolution: the
// variable and the clauses (in parent variable space) that mentioned it
// at the time. Reconstruct replays these in reverse to pick a value for
// V that satisfies all of them.
type Elimination struct {
	V       cnf.Var
	Clauses []cnf.Clause
}

// eliminate runs one sweep of bounded variable elimination over
// variables 1..numVars in order. The clause array is append-only:
// eliminated clauses are flagged dead and resolvents go at the end, so
// occurrence lists only grow and stay ascending, and the live clauses
// in index order are the formula in clause order. conflict reports that
// an empty resolvent was derived (only possible when both sides hold a
// unit clause, i.e. (v)·(¬v) — normally unit propagation has removed
// those first).
func (x *index) eliminate(clauses []cnf.Clause, numVars int, res *Result) (out []cnf.Clause, conflict, changed bool) {
	x.build(clauses)
	all := clauses
	dead := make([]bool, len(all))
	var resolvents []cnf.Clause
	for v := cnf.Var(1); int(v) <= numVars; v++ {
		pos, neg := x.live(cnf.Pos(v), dead), x.live(cnf.Neg(v), dead)
		if len(pos) == 0 || len(neg) == 0 {
			continue // absent or pure: the pure pass handles it
		}
		if len(pos)*len(neg) > maxResolvePairs {
			continue
		}
		// (v)·(¬v) resolve to the empty clause. Checked before the pair
		// loop, which may stop before it reaches that pair.
		if hasUnit(all, pos) && hasUnit(all, neg) {
			return nil, true, true
		}
		resolvents = resolvents[:0]
		bounded := true
	pairs:
		for _, pi := range pos {
			for _, ni := range neg {
				r, ok := x.resolve(all[pi], all[ni], v)
				if !ok || x.seen(r, resolvents) {
					continue // tautological or duplicate resolvent
				}
				if len(resolvents) == len(pos)+len(neg) {
					bounded = false // elimination would grow the formula
					break pairs
				}
				resolvents = append(resolvents, r.Clone())
			}
		}
		if !bounded {
			continue
		}

		// Commit: record the removed clauses, in clause order, for
		// reconstruction; append the resolvents.
		touched := slices.Concat(pos, neg)
		slices.Sort(touched)
		elim := Elimination{V: v, Clauses: make([]cnf.Clause, len(touched))}
		for k, i := range touched {
			elim.Clauses[k] = all[i]
			dead[i] = true
		}
		for _, r := range resolvents {
			for _, l := range r {
				x.occ[l] = append(x.occ[l], int32(len(all)))
			}
			all = append(all, r)
			dead = append(dead, false)
		}
		res.Eliminations = append(res.Eliminations, elim)
		res.Stats.VarsEliminated++
		changed = true
	}
	if !changed {
		return clauses, false, false
	}
	out = make([]cnf.Clause, 0, len(all))
	for i, c := range all {
		if !dead[i] {
			out = append(out, c)
		}
	}
	return out, false, true
}

// live drops dead clauses from the occurrence list of l and returns it.
func (x *index) live(l cnf.Lit, dead []bool) []int32 {
	list := x.occ[l][:0]
	for _, i := range x.occ[l] {
		if !dead[i] {
			list = append(list, i)
		}
	}
	x.occ[l] = list
	return list
}

// hasUnit reports whether any of the indexed clauses is a unit clause.
func hasUnit(clauses []cnf.Clause, idx []int32) bool {
	for _, i := range idx {
		if len(clauses[i]) == 1 {
			return true
		}
	}
	return false
}

// resolve computes the resolvent of p (containing v) and n (containing
// ¬v) on v: p's other literals, then n's that p lacks. ok is false when
// the resolvent is tautological. The result is only valid until the
// next call, and its literals are left as the stamp set.
func (x *index) resolve(p, n cnf.Clause, v cnf.Var) (cnf.Clause, bool) {
	x.mark(nil)
	out := x.buf[:0]
	for _, c := range [...]cnf.Clause{p, n} {
		for _, l := range c {
			if l.Var() == v {
				continue
			}
			if x.stamp[l.Negate()] == x.epoch {
				return nil, false
			}
			if x.stamp[l] != x.epoch {
				x.stamp[l] = x.epoch
				out = append(out, l)
			}
		}
	}
	x.buf = out
	return out, true
}

// seen reports whether r, whose literals are the stamp set, equals one
// of the clauses in rs (clauses compare as sets: none repeats a
// literal).
func (x *index) seen(r cnf.Clause, rs []cnf.Clause) bool {
	for _, d := range rs {
		if len(d) == len(r) && x.count(d) == len(d) {
			return true
		}
	}
	return false
}
