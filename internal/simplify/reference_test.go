package simplify

import (
	"container/heap"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/rng"
)

// The reference implementation of Simplify and Decompose: the passes as
// they stood before they learned to revisit only what changed. Every
// round re-runs subsumption, strengthening and bounded variable
// elimination over every clause and variable, and compact renames
// through maps. It is kept, renamed, as the oracle of
// TestSimplifyMatchesReference and FuzzSimplifyMatchesReference: the
// production passes must return its Result, field for field, and its
// components.

// refSimplify is Simplify on the reference passes.
func refSimplify(f *cnf.Formula, opts Options) *Result {
	if opts.MaxRounds == 0 {
		opts.MaxRounds = 20
	}
	res := &Result{
		Forced: cnf.NewAssignment(f.NumVars),
	}
	work, hasEmpty := f.Simplify()
	if hasEmpty {
		res.ProvedUnsat = true
	} else {
		g, vars := refCompact(work.Clauses)
		d := &Result{Forced: cnf.NewAssignment(g.NumVars)}
		refLift(res, d, vars, refReduce(g, opts, d))
	}
	res.Stats.VarsBefore = f.NumVars
	res.Stats.ClausesBefore = f.NumClauses()
	return res
}

func refReduce(g *cnf.Formula, opts Options, d *Result) []cnf.Clause {
	clauses := g.Clauses
	x := newRefIndex(g.NumVars)
	for round := 0; round < opts.MaxRounds; round++ {
		changed := false

		if !opts.DisableUnits {
			var conflict bool
			clauses, conflict, changed = x.propagateUnits(clauses, d)
			if conflict {
				d.ProvedUnsat = true
				return nil
			}
		}
		if !opts.DisablePure {
			if c, ch := refEliminatePure(clauses, g.NumVars, d); ch {
				clauses, changed = c, true
			}
		}
		if !opts.DisableSubsumption {
			if c, ch := x.subsume(clauses, d); ch {
				clauses, changed = c, true
			}
		}
		if !opts.DisableStrengthen {
			if c, ch := x.strengthen(clauses, d); ch {
				clauses, changed = c, true
			}
		}
		if !opts.DisableBVE {
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
	for _, c := range clauses {
		if len(c) == 0 {
			d.ProvedUnsat = true
			return nil
		}
	}
	return clauses
}

func refLift(r, d *Result, vars []cnf.Var, clauses []cnf.Clause) {
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
	r.F, r.VarMap = refCompact(clauses)
	for i, v := range r.VarMap {
		r.VarMap[i] = vars[v-1]
	}
	r.Stats.VarsAfter = r.F.NumVars
	r.Stats.ClausesAfter = r.F.NumClauses()
}

func refCompact(clauses []cnf.Clause) (*cnf.Formula, []cnf.Var) {
	used := map[cnf.Var]bool{}
	for _, c := range clauses {
		for _, l := range c {
			used[l.Var()] = true
		}
	}
	vars := make([]cnf.Var, 0, len(used))
	for v := range used {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	remap := make(map[cnf.Var]cnf.Var, len(vars))
	for i, v := range vars {
		remap[v] = cnf.Var(i + 1)
	}
	out := cnf.New(len(vars))
	for _, c := range clauses {
		d := make(cnf.Clause, len(c))
		for i, l := range c {
			d[i] = cnf.NewLit(remap[l.Var()], l.IsNeg())
		}
		out.Clauses = append(out.Clauses, d)
	}
	return out, vars
}

type refIndex struct {
	occ   [][]int32
	stamp []uint64
	epoch uint64
	buf   cnf.Clause
}

func newRefIndex(numVars int) *refIndex {
	n := 2 * (numVars + 1)
	return &refIndex{occ: make([][]int32, n), stamp: make([]uint64, n)}
}

func (x *refIndex) build(clauses []cnf.Clause) {
	for l := range x.occ {
		x.occ[l] = x.occ[l][:0]
	}
	for i, c := range clauses {
		for _, l := range c {
			x.occ[l] = append(x.occ[l], int32(i))
		}
	}
}

func (x *refIndex) mark(c cnf.Clause) {
	x.epoch++
	for _, l := range c {
		x.stamp[l] = x.epoch
	}
}

func (x *refIndex) count(c cnf.Clause) int {
	n := 0
	for _, l := range c {
		if x.stamp[l] == x.epoch {
			n++
		}
	}
	return n
}

func refWithout(c cnf.Clause, l cnf.Lit) cnf.Clause {
	d := make(cnf.Clause, 0, len(c)-1)
	for _, y := range c {
		if y != l {
			d = append(d, y)
		}
	}
	return d
}

type refMinHeap struct{ sort.IntSlice }

func (h *refMinHeap) Push(i any) { h.IntSlice = append(h.IntSlice, i.(int)) }

func (h *refMinHeap) Pop() any {
	i := h.IntSlice[len(h.IntSlice)-1]
	h.IntSlice = h.IntSlice[:len(h.IntSlice)-1]
	return i
}

func (x *refIndex) propagateUnits(clauses []cnf.Clause, res *Result) (out []cnf.Clause, conflict, changed bool) {
	units := &refMinHeap{}
	for i, c := range clauses {
		if len(c) == 1 {
			units.IntSlice = append(units.IntSlice, i)
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
			continue
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
			dead[j] = true
		}
		neg := unit.Negate()
		for _, j := range x.occ[neg] {
			if dead[j] {
				continue
			}
			d := refWithout(clauses[j], neg)
			if len(d) == 0 {
				return nil, true, true
			}
			clauses[j] = d
			if len(d) == 1 {
				heap.Push(units, int(j))
			}
		}
	}
	out = clauses[:0:0]
	for i, c := range clauses {
		if !dead[i] {
			out = append(out, c)
		}
	}
	return out, false, true
}

func refEliminatePure(clauses []cnf.Clause, numVars int, res *Result) ([]cnf.Clause, bool) {
	polarity := make([]int8, numVars+1)
	for _, c := range clauses {
		for _, l := range c {
			bit := int8(1)
			if l.IsNeg() {
				bit = 2
			}
			polarity[l.Var()] |= bit
		}
	}
	pure := make([]bool, 2*(numVars+1))
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
	out := clauses[:0:0]
	for _, c := range clauses {
		satisfied := false
		for _, l := range c {
			if pure[l] {
				satisfied = true
				break
			}
		}
		if !satisfied {
			out = append(out, c)
		}
	}
	return out, true
}

func (x *refIndex) subsume(clauses []cnf.Clause, res *Result) ([]cnf.Clause, bool) {
	order := make([]int, len(clauses))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return len(clauses[order[a]]) < len(clauses[order[b]])
	})
	rank := make([]int, len(clauses))
	for r, i := range order {
		rank[i] = r
	}
	x.build(clauses)
	removed := make([]bool, len(clauses))
	changed := false
	for r, i := range order {
		if removed[i] {
			continue
		}
		c := clauses[i]
		if len(c) == 0 {
			for _, j := range order[r+1:] {
				if !removed[j] {
					removed[j] = true
					res.Stats.ClausesSubsumed++
					changed = true
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
			if rank[j] <= r || removed[j] {
				continue
			}
			if x.count(clauses[j]) == len(c) {
				removed[j] = true
				res.Stats.ClausesSubsumed++
				changed = true
			}
		}
	}
	if !changed {
		return clauses, false
	}
	out := clauses[:0:0]
	for i, c := range clauses {
		if !removed[i] {
			out = append(out, c)
		}
	}
	return out, true
}

func (x *refIndex) strengthen(clauses []cnf.Clause, res *Result) ([]cnf.Clause, bool) {
	x.build(clauses)
	changed := false
	for i := range clauses {
		c := clauses[i]
		x.mark(c)
		for _, l := range c {
			neg := l.Negate()
			for _, j := range x.occ[neg] {
				d := clauses[j]
				if int(j) == i || x.count(d) != len(c)-1 || !d.Contains(neg) {
					continue
				}
				clauses[j] = refWithout(d, neg)
				res.Stats.LiteralsStrength++
				changed = true
			}
		}
	}
	return clauses, changed
}

func (x *refIndex) eliminate(clauses []cnf.Clause, numVars int, res *Result) (out []cnf.Clause, conflict, changed bool) {
	x.build(clauses)
	all := clauses
	dead := make([]bool, len(all))
	var resolvents []cnf.Clause
	for v := cnf.Var(1); int(v) <= numVars; v++ {
		pos, neg := x.live(cnf.Pos(v), dead), x.live(cnf.Neg(v), dead)
		if len(pos) == 0 || len(neg) == 0 {
			continue
		}
		if len(pos)*len(neg) > maxResolvePairs {
			continue
		}
		if refHasUnit(all, pos) && refHasUnit(all, neg) {
			return nil, true, true
		}
		resolvents = resolvents[:0]
		bounded := true
	pairs:
		for _, pi := range pos {
			for _, ni := range neg {
				r, ok := x.resolve(all[pi], all[ni], v)
				if !ok || x.seen(r, resolvents) {
					continue
				}
				if len(resolvents) == len(pos)+len(neg) {
					bounded = false
					break pairs
				}
				resolvents = append(resolvents, r.Clone())
			}
		}
		if !bounded {
			continue
		}
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

func (x *refIndex) live(l cnf.Lit, dead []bool) []int32 {
	list := x.occ[l][:0]
	for _, i := range x.occ[l] {
		if !dead[i] {
			list = append(list, i)
		}
	}
	x.occ[l] = list
	return list
}

func refHasUnit(clauses []cnf.Clause, idx []int32) bool {
	for _, i := range idx {
		if len(clauses[i]) == 1 {
			return true
		}
	}
	return false
}

func (x *refIndex) resolve(p, n cnf.Clause, v cnf.Var) (cnf.Clause, bool) {
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

func (x *refIndex) seen(r cnf.Clause, rs []cnf.Clause) bool {
	for _, d := range rs {
		if len(d) == len(r) && x.count(d) == len(d) {
			return true
		}
	}
	return false
}

// refDecompose is Decompose with the reference grouping (a map from
// root to clauses) and the reference compact.
func refDecompose(f *cnf.Formula) []*Component {
	parent := make([]int32, f.NumVars+1)
	for v := range parent {
		parent[v] = int32(v)
	}
	var find func(v int32) int32
	find = func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for _, c := range f.Clauses {
		for i := 1; i < len(c); i++ {
			union(int32(c[0].Var()), int32(c[i].Var()))
		}
	}
	groups := map[int32][]cnf.Clause{}
	for _, c := range f.Clauses {
		root := int32(0)
		if len(c) > 0 {
			root = find(int32(c[0].Var()))
		}
		groups[root] = append(groups[root], c)
	}
	roots := make([]int32, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	out := make([]*Component, 0, len(groups))
	for _, root := range roots {
		g, vars := refCompact(groups[root])
		out = append(out, &Component{F: g, VarMap: vars})
	}
	return out
}

// diffResult returns the first difference between got and want, or ""
// when every field agrees: the UNSAT flag, Stats, Forced, VarMap, F
// with its clause and literal order, and Eliminations. A nil slice and
// an empty one count as different, so callers can never tell the two
// implementations apart.
func diffResult(got, want *Result) string {
	if got.ProvedUnsat != want.ProvedUnsat {
		return fmt.Sprintf("ProvedUnsat %t, want %t", got.ProvedUnsat, want.ProvedUnsat)
	}
	if got.Stats != want.Stats {
		return fmt.Sprintf("Stats %+v, want %+v", got.Stats, want.Stats)
	}
	if d := diffSlice("Forced", got.Forced, want.Forced); d != "" {
		return d
	}
	if d := diffSlice("VarMap", got.VarMap, want.VarMap); d != "" {
		return d
	}
	if (got.F == nil) != (want.F == nil) {
		return fmt.Sprintf("F %v, want %v", got.F, want.F)
	}
	if got.F != nil {
		if got.F.NumVars != want.F.NumVars {
			return fmt.Sprintf("F.NumVars %d, want %d", got.F.NumVars, want.F.NumVars)
		}
		if d := diffClauses("F", got.F.Clauses, want.F.Clauses); d != "" {
			return d
		}
	}
	if (got.Eliminations == nil) != (want.Eliminations == nil) || len(got.Eliminations) != len(want.Eliminations) {
		return fmt.Sprintf("%d eliminations (nil %t), want %d (nil %t)", len(got.Eliminations),
			got.Eliminations == nil, len(want.Eliminations), want.Eliminations == nil)
	}
	for i, e := range got.Eliminations {
		w := want.Eliminations[i]
		if e.V != w.V {
			return fmt.Sprintf("elimination %d of x%d, want x%d", i, e.V, w.V)
		}
		if d := diffClauses(fmt.Sprintf("elimination %d", i), e.Clauses, w.Clauses); d != "" {
			return d
		}
	}
	return ""
}

// diffComponents is diffResult for Decompose: the same components in
// the same order, each with the same F and VarMap.
func diffComponents(got, want []*Component) string {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Sprintf("%d components (nil %t), want %d (nil %t)", len(got), got == nil, len(want), want == nil)
	}
	for i, c := range got {
		w := want[i]
		if c.F.NumVars != w.F.NumVars {
			return fmt.Sprintf("component %d: NumVars %d, want %d", i, c.F.NumVars, w.F.NumVars)
		}
		if d := diffSlice(fmt.Sprintf("component %d VarMap", i), c.VarMap, w.VarMap); d != "" {
			return d
		}
		if d := diffClauses(fmt.Sprintf("component %d", i), c.F.Clauses, w.F.Clauses); d != "" {
			return d
		}
	}
	return ""
}

func diffClauses(what string, got, want []cnf.Clause) string {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Sprintf("%s: %d clauses (nil %t), want %d (nil %t)", what, len(got), got == nil, len(want), want == nil)
	}
	for i := range got {
		if d := diffSlice(fmt.Sprintf("%s clause %d", what, i), got[i], want[i]); d != "" {
			return d
		}
	}
	return ""
}

func diffSlice[E comparable](what string, got, want []E) string {
	if (got == nil) != (want == nil) || !slices.Equal(got, want) {
		return fmt.Sprintf("%s %v (nil %t), want %v (nil %t)", what, got, got == nil, want, want == nil)
	}
	return ""
}

// checkMatchesReference runs Simplify and the oracle on f under opts
// and fails t at the first difference, then does the same for Decompose
// on f and on the reduced formula.
func checkMatchesReference(t *testing.T, f *cnf.Formula, opts Options, label string) {
	t.Helper()
	in := f.Clone()
	want, got := refSimplify(f, opts), Simplify(f, opts)
	if d := diffResult(got, want); d != "" {
		t.Fatalf("%s: Simplify: %s\ninput %s", label, d, in)
	}
	// Clone makes nil Clauses empty, so only the values compare here.
	if !slices.EqualFunc(f.Clauses, in.Clauses, slices.Equal) {
		t.Fatalf("%s: Simplify modified its input %s", label, in)
	}
	if d := diffComponents(Decompose(f), refDecompose(f)); d != "" {
		t.Fatalf("%s: Decompose of the input: %s\ninput %s", label, d, in)
	}
	if got.F != nil {
		if d := diffComponents(Decompose(got.F), refDecompose(want.F)); d != "" {
			t.Fatalf("%s: Decompose of the reduced formula: %s\ninput %s", label, d, in)
		}
	}
}

// sparseNames returns f with its variables renamed into a random subset
// of 1..n·span, in no particular order, and declared as that many: the
// renamings then neither follow nor preserve the original order.
func sparseNames(g *rng.Xoshiro256, f *cnf.Formula, span int) *cnf.Formula {
	perm := g.Perm(f.NumVars * span)
	out := cnf.New(f.NumVars * span)
	for _, c := range f.Clauses {
		d := make(cnf.Clause, len(c))
		for k, l := range c {
			d[k] = cnf.NewLit(cnf.Var(perm[l.Var()-1]+1), l.IsNeg())
		}
		out.Clauses = append(out.Clauses, d)
	}
	return out
}

// TestSimplifyMatchesReference holds Simplify and Decompose to the
// reference passes, field for field, under every golden option set, on
// a corpus far wider than the golden's: serving shapes of 3 to 6
// planted blocks, renamed planted 50/210 formulas, random 2- to 4-SAT,
// mixed-length formulas with units, duplicates and conflicts, and
// formulas over sparse variable names.
func TestSimplifyMatchesReference(t *testing.T) {
	g := rng.New(2150)
	var corpus []*cnf.Formula
	for i := 0; i < 150; i++ {
		corpus = append(corpus, servingShape(g, 3+i%4))
	}
	for i := 0; i < 100; i++ {
		f, _ := gen.PlantedKSAT(g, 50, 210, 3)
		corpus = append(corpus, scrambled(g, f))
	}
	for i := 0; i < 400; i++ {
		n := 4 + g.Intn(30)
		k := 2 + i%3
		corpus = append(corpus, gen.RandomKSAT(g, n, 1+g.Intn(3*k*n), k))
	}
	for i := 0; i < 1500; i++ {
		n := 1 + g.Intn(12)
		corpus = append(corpus, mixedLength(g, n, 1+g.Intn(5*n+4)))
	}
	for i := 0; i < 100; i++ {
		corpus = append(corpus, sparseNames(g, mixedLength(g, 12, 40+g.Intn(20)), 1+g.Intn(50)))
	}
	for _, o := range goldenOptions {
		for i, f := range corpus {
			checkMatchesReference(t, f, o.opts, fmt.Sprintf("%s/formula %d", o.name, i))
		}
	}
}

// FuzzSimplifyMatchesReference holds Simplify and Decompose to the
// reference passes on any formula of up to 32 variables and 96 clauses
// (duplicate literals, tautologies, units, empty clauses and unused
// declared variables included) under any golden option set.
func FuzzSimplifyMatchesReference(f *testing.F) {
	for _, seed := range []struct {
		data []byte
		opts uint8
	}{
		{[]byte{1, 2, 0, 2, 2, 0, 3, 2, 1, 2, 2, 1, 3}, 0},       // (x1+x2)(x1+!x2)(!x1+x2)(!x1+!x2)
		{[]byte{2, 1, 0, 2, 2, 5, 2, 1, 4, 3, 0, 3, 4}, 1},       // Example 5
		{[]byte{0, 1, 0, 1, 1}, 2},                               // (x1)(!x1)
		{[]byte{7, 0, 3, 2, 4, 6, 4, 1, 3, 5, 7, 1, 8}, 3},       // an empty clause first
		{[]byte{5, 1, 0, 2, 1, 2, 2, 3, 4, 2, 5, 6, 2, 7, 8}, 4}, // an implication chain
		{[]byte{9, 3, 4, 4, 6, 2, 8, 9, 3, 2, 2, 10}, 5},         // duplicates, a tautology
		// Over 32 and 13 variables.
		{[]byte{31, 3, 2, 4, 6, 3, 3, 5, 7, 3, 2, 5, 9, 3, 4, 7, 9, 2, 2, 11, 2, 3, 11}, 6},
		{[]byte{12, 3, 1, 4, 6, 3, 0, 5, 7, 3, 1, 5, 8, 3, 2, 4, 9, 2, 6, 8}, 7},
		// A fuzzer find: elimination must stamp the clauses it removes,
		// or a later attempt on one of their variables is skipped.
		{[]byte("091710200008009119B000A"), 4},
	} {
		f.Add(seed.data, seed.opts)
	}
	f.Fuzz(func(t *testing.T, data []byte, opts uint8) {
		o := goldenOptions[int(opts)%len(goldenOptions)]
		checkMatchesReference(t, decodeFormulaUpTo(data, 32, 96), o.opts, o.name)
	})
}
