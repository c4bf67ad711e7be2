// Package simplify implements CNF preprocessing: unit propagation, pure
// literal elimination, tautology and duplicate removal, clause
// subsumption, self-subsuming resolution (clause strengthening) and
// bounded variable elimination. The passes visit clauses through
// per-literal occurrence lists, never pair by pair; after their first
// run they revisit only the clauses and variables that changed since.
// Simplify's output is a pure function of its input, down to clause and
// literal order.
//
// Preprocessing matters more for NBL-SAT than for classical solvers:
// the Monte-Carlo engine's sample budget grows as 4^(n·m)
// (Section III-F), so removing a single clause or variable before the
// noise encoding cuts the observation time by an exponential factor.
// The nblsat CLI exposes this via -preprocess.
package simplify

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/cnf"
)

// Options selects which passes run. The zero value enables everything.
type Options struct {
	// DisableUnits skips unit propagation.
	DisableUnits bool
	// DisablePure skips pure-literal elimination.
	DisablePure bool
	// DisableSubsumption skips clause subsumption.
	DisableSubsumption bool
	// DisableStrengthen skips self-subsuming resolution.
	DisableStrengthen bool
	// DisableBVE skips bounded variable elimination.
	DisableBVE bool
	// MaxRounds bounds the fixpoint iteration (default 20).
	MaxRounds int
}

// Result is the outcome of preprocessing.
type Result struct {
	// F is the simplified formula over compacted variables 1..F.NumVars.
	F *cnf.Formula
	// ProvedUnsat reports that preprocessing derived the empty clause;
	// F is meaningless in that case.
	ProvedUnsat bool
	// Forced holds values of original variables fixed by unit
	// propagation or pure literals.
	Forced cnf.Assignment
	// VarMap maps compacted variable v (1-based index into VarMap-1) to
	// the original variable it renames.
	VarMap []cnf.Var
	// Eliminations lists the variables removed by bounded variable
	// elimination, in the order they were eliminated. Reconstruct
	// replays them in reverse to extend a model over them.
	Eliminations []Elimination
	// Stats summarizes the reduction.
	Stats Stats
}

// Stats quantifies the reduction.
type Stats struct {
	UnitsPropagated             int
	PureLiterals                int
	ClausesSubsumed             int
	LiteralsStrength            int
	VarsEliminated              int
	VarsBefore, VarsAfter       int
	ClausesBefore, ClausesAfter int
}

// NMBefore returns the n·m product before preprocessing, the quantity
// that drives the NBL sample budget.
func (s Stats) NMBefore() int { return s.VarsBefore * s.ClausesBefore }

// NMAfter returns the n·m product after preprocessing.
func (s Stats) NMAfter() int { return s.VarsAfter * s.ClausesAfter }

func (s Stats) String() string {
	return fmt.Sprintf("units=%d pure=%d subsumed=%d strengthened=%d eliminated=%d  n·m %d -> %d",
		s.UnitsPropagated, s.PureLiterals, s.ClausesSubsumed, s.LiteralsStrength,
		s.VarsEliminated, s.NMBefore(), s.NMAfter())
}

// Simplify preprocesses f.
func Simplify(f *cnf.Formula, opts Options) *Result {
	if opts.MaxRounds == 0 {
		opts.MaxRounds = 20
	}
	res := &Result{
		Forced: cnf.NewAssignment(f.NumVars),
	}
	work, hasEmpty := f.Simplify() // drop tautologies, dedup literals
	if hasEmpty {
		res.ProvedUnsat = true
	} else {
		// The passes run over the variables that occur, renamed 1..n in
		// ascending order: their per-literal scratch then follows the
		// clauses, not the declared variable count, and the renaming
		// keeps every order the passes depend on.
		g, vars := work.Compact()
		d := &Result{Forced: cnf.NewAssignment(g.NumVars)}
		res.lift(d, vars, reduce(g, opts, d))
	}
	res.Stats.VarsBefore = f.NumVars
	res.Stats.ClausesBefore = f.NumClauses()
	return res
}

// Condition returns f under the partial assignment bound, closed under
// unit propagation alone: Forced holds bound's values and every value
// propagation derives from them and from f's own unit clauses, and F is
// the residual over the variables still unassigned, compacted through
// VarMap. ProvedUnsat reports that propagation refuted f under bound.
// No other pass runs, so the models of f that agree with bound are
// exactly Forced joined with a model of F (lifted through VarMap) and
// any values for the variables in neither: those are free.
func Condition(f *cnf.Formula, bound cnf.Assignment) *Result {
	g := cnf.New(f.NumVars)
	for v := 1; v <= f.NumVars; v++ {
		if val := bound.Get(cnf.Var(v)); val != cnf.Unassigned {
			g.Clauses = append(g.Clauses, cnf.Clause{cnf.NewLit(cnf.Var(v), val == cnf.False)})
		}
	}
	g.Clauses = append(g.Clauses, f.Clauses...)
	r := Simplify(g, Options{DisablePure: true, DisableSubsumption: true, DisableStrengthen: true, DisableBVE: true})
	r.Stats.ClausesBefore = f.NumClauses()
	return r
}

// reduce runs the passes over g to a fixpoint (or opts.MaxRounds),
// recording into d, and returns the reduced clauses; they are
// meaningless once d.ProvedUnsat is set. Each pass starts by advancing
// the index's clock, so the change stamps tell subsumption,
// strengthening and elimination what changed since they last ran.
func reduce(g *cnf.Formula, opts Options, d *Result) []cnf.Clause {
	clauses := g.Clauses
	x := newIndex(g.NumVars)
	for round := 0; round < opts.MaxRounds; round++ {
		changed := false

		if !opts.DisableUnits {
			var conflict bool
			x.clock++
			clauses, conflict, changed = x.propagateUnits(clauses, d)
			if conflict {
				d.ProvedUnsat = true
				return nil
			}
		}
		if !opts.DisablePure {
			x.clock++
			if c, ch := x.eliminatePure(clauses, g.NumVars, d); ch {
				clauses, changed = c, true
			}
		}
		if !opts.DisableSubsumption {
			x.clock++
			if c, ch := x.subsume(clauses, d); ch {
				clauses, changed = c, true
			}
		}
		if !opts.DisableStrengthen {
			x.clock++
			if c, ch := x.strengthen(clauses, d); ch {
				clauses, changed = c, true
			}
		}
		if !opts.DisableBVE {
			x.clock++
			c, conflict, ch := x.eliminate(clauses, g.NumVars, d)
			if conflict {
				d.ProvedUnsat = true
				return nil
			}
			if ch {
				clauses, changed = c, true
			}
		}
		if !changed {
			break
		}
	}

	// Strengthening can shrink a clause to empty (e.g. resolving the
	// last literal away): that is a derived contradiction.
	for _, c := range clauses {
		if len(c) == 0 {
			d.ProvedUnsat = true
			return nil
		}
	}
	return clauses
}

// lift records in r the outcome d of the passes over renamed variables
// (variable i+1 renames vars[i]) and their reduced clauses, mapped back
// to r's variable space.
func (r *Result) lift(d *Result, vars []cnf.Var, clauses []cnf.Clause) {
	r.ProvedUnsat = d.ProvedUnsat
	r.Stats = d.Stats
	for i, v := range vars {
		r.Forced[v] = d.Forced[i+1]
	}
	for _, e := range d.Eliminations {
		cs := make([]cnf.Clause, len(e.Clauses))
		for k, c := range e.Clauses {
			cs[k] = make(cnf.Clause, len(c))
			for j, l := range c {
				cs[k][j] = cnf.NewLit(vars[l.Var()-1], l.IsNeg())
			}
		}
		r.Eliminations = append(r.Eliminations, Elimination{V: vars[e.V-1], Clauses: cs})
	}
	if r.ProvedUnsat {
		return
	}
	r.F, r.VarMap = (&cnf.Formula{Clauses: clauses}).Compact()
	for i, v := range r.VarMap {
		r.VarMap[i] = vars[v-1]
	}
	r.Stats.VarsAfter = r.F.NumVars
	r.Stats.ClausesAfter = r.F.NumClauses()
}

// Reconstruct lifts a model of the simplified formula to a total
// assignment of the original formula: forced values first, then the
// model through VarMap, then false for anything left free, then the
// variables removed by bounded variable elimination, replayed in
// reverse elimination order so each one's removed clauses come out
// satisfied.
func (r *Result) Reconstruct(model cnf.Assignment) cnf.Assignment {
	out := r.Forced.Clone()
	for i, orig := range r.VarMap {
		out.Set(orig, model.Get(cnf.Var(i+1)))
	}
	for v := 1; v < len(out); v++ {
		if out[v] == cnf.Unassigned {
			out[v] = cnf.False
		}
	}
	for i := len(r.Eliminations) - 1; i >= 0; i-- {
		e := r.Eliminations[i]
		// v must be true iff some clause containing the positive
		// literal is not already satisfied by another literal. (The
		// model satisfies every resolvent, so the other side's clauses
		// are then satisfied by ¬v's side being covered.)
		needTrue := false
		pos := cnf.Pos(e.V)
		for _, c := range e.Clauses {
			if !c.Contains(pos) {
				continue
			}
			satisfied := false
			for _, l := range c {
				if l == pos {
					continue
				}
				if out.LitValue(l) == cnf.True {
					satisfied = true
					break
				}
			}
			if !satisfied {
				needTrue = true
				break
			}
		}
		if needTrue {
			out.Set(e.V, cnf.True)
		} else {
			out.Set(e.V, cnf.False)
		}
	}
	return out
}

// index is the scratch state the passes share: per-literal occurrence
// lists, a literal-stamp set and the change stamps. A pass builds the
// lists from its own input and then visits only the clauses that share
// a literal with the clause at hand, never every pair; the stamp set
// holds one clause's literals at a time and empties in O(1) by
// advancing its epoch.
//
// The change stamps let a pass revisit only what changed since it last
// ran. The clock advances when each pass starts; a pass that removes a
// clause stamps its literals in changed, and one that adds or shrinks a
// clause stamps them in changed and in grown. Subsume, strengthen and
// eliminate each state their skip rule and why it is exact.
type index struct {
	occ   [][]int32 // occ[l]: indices of the clauses containing l, ascending
	stamp []uint64  // stamp[l] == epoch: l is in the set
	epoch uint64    // 64 bits: never wraps back onto a stale stamp

	clock        uint32
	changed      []uint32 // changed[l]: clock of the last change to a clause holding l
	grown        []uint32 // grown[l]: clock of the last clause holding l added or shrunk
	failed       []uint32 // failed[v]: clock of v's last failed elimination; 0 for none
	subsumed     uint32   // clock at subsume's last start; 0 before the first
	strengthened uint32   // clock at strengthen's last start; 0 before the first

	arena cnf.Clause // an elimination attempt's resolvents, end to end
	ends  []int      // resolvent k is arena[ends[k-1]:ends[k]]
}

// newIndex sizes an index for the literals of variables 1..numVars.
func newIndex(numVars int) *index {
	n := 2 * (numVars + 1)
	return &index{
		occ:     make([][]int32, n),
		stamp:   make([]uint64, n),
		changed: make([]uint32, n),
		grown:   make([]uint32, n),
		failed:  make([]uint32, numVars+1),
	}
}

// build fills the occurrence lists from clauses.
func (x *index) build(clauses []cnf.Clause) {
	for l := range x.occ {
		x.occ[l] = x.occ[l][:0]
	}
	for i, c := range clauses {
		for _, l := range c {
			x.occ[l] = append(x.occ[l], int32(i))
		}
	}
}

// mark empties the stamp set and puts the literals of c in it.
func (x *index) mark(c cnf.Clause) {
	x.epoch++
	for _, l := range c {
		x.stamp[l] = x.epoch
	}
}

// count returns how many literals of c are in the stamp set.
func (x *index) count(c cnf.Clause) int {
	n := 0
	for _, l := range c {
		if x.stamp[l] == x.epoch {
			n++
		}
	}
	return n
}

// touch records that c is being removed.
func (x *index) touch(c cnf.Clause) {
	for _, l := range c {
		x.changed[l] = x.clock
	}
}

// grow records that c is being added or shrunk.
func (x *index) grow(c cnf.Clause) {
	for _, l := range c {
		x.changed[l] = x.clock
		x.grown[l] = x.clock
	}
}

// stale reports whether more than k literals of c have not grown since
// the clock since.
func (x *index) stale(c cnf.Clause, since uint32, k int) bool {
	for _, l := range c {
		if x.grown[l] < since {
			if k == 0 {
				return true
			}
			k--
		}
	}
	return false
}

// anyFresh reports whether some clause is not stale(c, since, k): a
// pass with nothing to revisit does not run at all.
func (x *index) anyFresh(clauses []cnf.Clause, since uint32, k int) bool {
	for _, c := range clauses {
		if !x.stale(c, since, k) {
			return true
		}
	}
	return false
}

// without returns a copy of c with the literal l removed.
func without(c cnf.Clause, l cnf.Lit) cnf.Clause {
	d := make(cnf.Clause, 0, len(c)-1)
	for _, y := range c {
		if y != l {
			d = append(d, y)
		}
	}
	return d
}

// minHeap is a min-heap of clause indices (container/heap).
type minHeap struct{ sort.IntSlice }

func (h *minHeap) Push(i any) { h.IntSlice = append(h.IntSlice, i.(int)) }

func (h *minHeap) Pop() any {
	i := h.IntSlice[len(h.IntSlice)-1]
	h.IntSlice = h.IntSlice[:len(h.IntSlice)-1]
	return i
}

// propagateUnits applies all unit clauses, returning the reduced clause
// set. The next unit is always the earliest unit clause in clause
// order, taken from a heap of unit-clause indices; a unit removes the
// clauses in its occurrence list and shrinks those holding its
// negation, stamping both. conflict reports a derived contradiction: a
// unit opposing a forced value, or a clause shrunk to empty.
func (x *index) propagateUnits(clauses []cnf.Clause, res *Result) (out []cnf.Clause, conflict, changed bool) {
	units := &minHeap{}
	for i, c := range clauses {
		if len(c) == 1 {
			units.IntSlice = append(units.IntSlice, i) // ascending: already a heap
		}
	}
	if units.Len() == 0 {
		return clauses, false, false
	}
	x.build(clauses)
	dead := make([]bool, len(clauses))
	for units.Len() > 0 {
		i := heap.Pop(units).(int)
		if dead[i] {
			continue // satisfied by an earlier unit
		}
		unit := clauses[i][0]
		res.Stats.UnitsPropagated++
		val := cnf.True
		if unit.IsNeg() {
			val = cnf.False
		}
		if prev := res.Forced.Get(unit.Var()); prev != cnf.Unassigned && prev != val {
			return nil, true, true
		}
		res.Forced.Set(unit.Var(), val)

		for _, j := range x.occ[unit] {
			if !dead[j] {
				dead[j] = true // satisfied
				x.touch(clauses[j])
			}
		}
		neg := unit.Negate()
		for _, j := range x.occ[neg] {
			if dead[j] {
				continue
			}
			d := without(clauses[j], neg)
			if len(d) == 0 {
				return nil, true, true
			}
			x.grow(clauses[j])
			clauses[j] = d
			if len(d) == 1 {
				heap.Push(units, int(j))
			}
		}
	}
	out = make([]cnf.Clause, 0, len(clauses))
	for i, c := range clauses {
		if !dead[i] {
			out = append(out, c)
		}
	}
	return out, false, true
}

// eliminatePure assigns variables appearing with a single polarity and
// removes the clauses they satisfy, stamping them.
func (x *index) eliminatePure(clauses []cnf.Clause, numVars int, res *Result) ([]cnf.Clause, bool) {
	polarity := make([]int8, numVars+1) // 1 pos, 2 neg, 3 both
	for _, c := range clauses {
		for _, l := range c {
			bit := int8(1)
			if l.IsNeg() {
				bit = 2
			}
			polarity[l.Var()] |= bit
		}
	}
	pure := make([]bool, 2*(numVars+1)) // indexed by literal
	found := false
	for v := 1; v <= numVars; v++ {
		switch polarity[v] {
		case 1:
			pure[cnf.Pos(cnf.Var(v))] = true
			res.Forced.Set(cnf.Var(v), cnf.True)
			res.Stats.PureLiterals++
			found = true
		case 2:
			pure[cnf.Neg(cnf.Var(v))] = true
			res.Forced.Set(cnf.Var(v), cnf.False)
			res.Stats.PureLiterals++
			found = true
		}
	}
	if !found {
		return clauses, false
	}
	out := make([]cnf.Clause, 0, len(clauses))
	for _, c := range clauses {
		satisfied := false
		for _, l := range c {
			if pure[l] {
				satisfied = true
				break
			}
		}
		if satisfied {
			x.touch(c)
		} else {
			out = append(out, c)
		}
	}
	return out, true
}

// subsume removes clauses that are supersets of another clause
// (C subsumes D when C ⊆ D: every model satisfying C satisfies D, so D
// is redundant). A clause removes every strict superset and every equal
// clause after it in a shortest-first sort.Slice of the clauses; the
// removed set depends on nothing else, so clauses are visited in clause
// order and the sort runs only once two equal clauses meet. A superset
// of C holds C's rarest literal, so only that literal's occurrence list
// is searched.
//
// After a subsume pass no live clause is a subset of another, so a new
// pair C ⊆ D needs C or D added or shrunk since; either way every
// literal of C grew. A clause with a literal that did not grow since
// this pass last began therefore subsumes nothing and is skipped.
func (x *index) subsume(clauses []cnf.Clause, res *Result) ([]cnf.Clause, bool) {
	since := x.subsumed
	if !x.anyFresh(clauses, since, 0) {
		return clauses, false
	}
	x.subsumed = x.clock
	x.build(clauses)
	var rank []int
	first := func(i, j int) bool { // whether i sorts before its equal j
		if rank == nil {
			order := make([]int, len(clauses))
			for k := range order {
				order[k] = k
			}
			sort.Slice(order, func(a, b int) bool {
				return len(clauses[order[a]]) < len(clauses[order[b]])
			})
			rank = make([]int, len(clauses))
			for r, k := range order {
				rank[k] = r
			}
		}
		return rank[i] < rank[j]
	}
	removed := make([]bool, len(clauses))
	n := 0
	remove := func(j int) {
		removed[j] = true
		x.touch(clauses[j])
		n++
	}
	for i, c := range clauses {
		if removed[i] || x.stale(c, since, 0) {
			continue
		}
		if len(c) == 0 {
			// The empty clause subsumes every other clause. Which of
			// two empty clauses survives cannot be told apart: the
			// formula is then UNSAT.
			for j := range clauses {
				if j != i && !removed[j] {
					remove(j)
				}
			}
			continue
		}
		rarest := c[0]
		for _, l := range c[1:] {
			if len(x.occ[l]) < len(x.occ[rarest]) {
				rarest = l
			}
		}
		x.mark(c)
		for _, j := range x.occ[rarest] {
			d := clauses[j]
			if int(j) == i || removed[j] || len(d) < len(c) || x.count(d) != len(c) {
				continue
			}
			if len(d) > len(c) || first(i, int(j)) {
				remove(int(j))
			}
		}
	}
	if n == 0 {
		return clauses, false
	}
	res.Stats.ClausesSubsumed += n
	out := make([]cnf.Clause, 0, len(clauses)-n)
	for i, c := range clauses {
		if !removed[i] {
			out = append(out, c)
		}
	}
	return out, true
}

// strengthen applies self-subsuming resolution: if C = A ∪ {l} and
// D ⊇ A ∪ {¬l}, the resolvent A ∪ (D \ {¬l}) subsumes D, so ¬l can be
// deleted from D. Clauses are visited in order, each as it stands after
// the earlier ones strengthened it; the candidates D for a literal l of
// C are the occurrence list of ¬l. Clauses only lose literals here, so
// a list can only hold extra entries, which the Contains check skips.
//
// A pair (C, D) that did not fire at C's last visit cannot fire while
// neither clause changes. If D grew, all of its literals grew, and D
// holds every literal of C but l; if C grew, all of C's did. A clause
// with two literals that did not grow since this pass last began is
// therefore skipped. That is read at its visit, so a D shrunk earlier
// in the same pass counts.
func (x *index) strengthen(clauses []cnf.Clause, res *Result) ([]cnf.Clause, bool) {
	since := x.strengthened
	if !x.anyFresh(clauses, since, 1) {
		return clauses, false
	}
	x.strengthened = x.clock
	x.build(clauses)
	changed := false
	for i := range clauses {
		c := clauses[i]
		if x.stale(c, since, 1) {
			continue
		}
		// A candidate holds ¬l and so never l (clauses are not
		// tautologies): it holds A = C \ {l} exactly when len(C)-1 of
		// its literals are in C. One stamp set serves every l.
		x.mark(c)
		for _, l := range c {
			neg := l.Negate()
			for _, j := range x.occ[neg] {
				d := clauses[j]
				if int(j) == i || x.count(d) != len(c)-1 || !d.Contains(neg) {
					continue
				}
				x.grow(d)
				clauses[j] = without(d, neg)
				res.Stats.LiteralsStrength++
				changed = true
			}
		}
	}
	return clauses, changed
}
