package simplify

import "repro/internal/cnf"

// Component is one variable-disjoint subformula of a decomposition: no
// variable of F occurs in any other component, so the components can be
// solved independently and their verdicts conjoined (the parent formula
// is SAT iff every component is SAT).
//
// F is expressed over compacted variables 1..F.NumVars; VarMap maps
// them back to the parent formula's variables.
type Component struct {
	// F is the component formula over compacted variables.
	F *cnf.Formula
	// VarMap maps compacted variable v to the parent variable
	// VarMap[v-1].
	VarMap []cnf.Var
}

// Lift writes a model of the component formula into an assignment over
// the parent formula's variables (only the component's own variables
// are touched).
func (c *Component) Lift(model cnf.Assignment, into cnf.Assignment) {
	for i, parent := range c.VarMap {
		into.Set(parent, model.Get(cnf.Var(i+1)))
	}
}

// Decompose splits f into its variable-disjoint connected components:
// two clauses are connected when they share a variable, computed by
// union-find over each clause's variables. Components are returned in
// ascending order of their smallest parent variable, so the split is
// deterministic. Variables that occur in no clause belong to no
// component (any value satisfies them); clauses with no literals (the
// empty clause, which makes the parent trivially UNSAT) are returned as
// a zero-variable component so callers see them structurally.
//
// A formula whose variable-interaction graph is connected comes back as
// a single component — decomposition is then a no-op and callers should
// fall through to solving the formula whole.
func Decompose(f *cnf.Formula) []*Component {
	parent := make([]int32, f.NumVars+1)
	for v := range parent {
		parent[v] = int32(v)
	}
	var find func(v int32) int32
	find = func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]] // path halving
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
			parent[rb] = ra // smaller root wins: deterministic ordering
		}
	}

	for _, c := range f.Clauses {
		for i := 1; i < len(c); i++ {
			union(int32(c[0].Var()), int32(c[i].Var()))
		}
	}

	// Group clauses by their root variable with a stable counting sort,
	// so each group keeps clause order and the groups come out in
	// ascending root order. Empty clauses collect under the pseudo-root
	// 0, which no variable can reach.
	roots := make([]int32, len(f.Clauses))
	next := make([]int32, f.NumVars+2) // next[r+1]: clauses under root r, then group r's next slot
	for i, c := range f.Clauses {
		if len(c) > 0 {
			roots[i] = find(int32(c[0].Var()))
		}
		next[roots[i]+1]++
	}
	groups := 0
	for r := 1; r < len(next); r++ {
		if next[r] > 0 {
			groups++
		}
		next[r] += next[r-1]
	}
	grouped := make([]cnf.Clause, len(f.Clauses))
	for i, c := range f.Clauses {
		grouped[next[roots[i]]] = c
		next[roots[i]]++
	}

	// Group r now ends at next[r], where group r+1 begins.
	out := make([]*Component, 0, groups)
	for start, r := int32(0), 0; r < len(next)-1; r++ {
		if end := next[r]; end > start {
			g, vars := compact(grouped[start:end])
			out = append(out, &Component{F: g, VarMap: vars})
			start = end
		}
	}
	return out
}
