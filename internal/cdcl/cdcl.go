// Package cdcl implements a conflict-driven clause-learning SAT solver
// in the Chaff/MiniSat lineage the paper cites as the state of the art
// among complete approaches ([4], [7]): two-watched-literal propagation,
// first-UIP conflict analysis with clause learning, VSIDS variable
// activities with exponential decay, and Luby-sequence restarts.
//
// It serves as the strong classical baseline of experiment E10 and as a
// correctness oracle for the NBL engines on instances too large for
// exhaustive counting.
package cdcl

import (
	"context"

	"repro/internal/cnf"
)

// Stats counts search effort.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Learned      int64
	Restarts     int64
}

// Solver is a CDCL SAT solver for one formula. It searches the
// variables that occur, renamed 1..n in ascending order of their names
// (cnf.Formula.Compact), so its per-variable arrays follow the clauses,
// not the declared variable count, and every tie it breaks by variable
// index falls as it would over the names.
type Solver struct {
	nVars   int         // declared variables, the length of a model
	vars    []cnf.Var   // vars[v-1] is searched variable v's name
	clauses [][]cnf.Lit // problem clauses then learned clauses
	watches [][]int32   // literal index -> clauses watching that literal

	assign   []cnf.Value // variable -> value
	level    []int32     // variable -> decision level
	reason   []int32     // variable -> clause index forcing it, or -1
	trail    []cnf.Lit
	trailLim []int32 // trail index at each decision level
	qhead    int

	activity []float64
	varInc   float64

	seen  []bool // scratch for conflict analysis
	stats Stats

	unsat bool // formula contains an empty clause or top-level conflict
}

const varDecay = 0.95

// New builds a solver for f. Tautological clauses are dropped and
// duplicate literals removed.
func New(f *cnf.Formula) *Solver {
	s := &Solver{nVars: f.NumVars, varInc: 1}
	simplified, hasEmpty := f.Simplify()
	if hasEmpty {
		s.unsat = true
		return s
	}
	g, vars := simplified.Compact()
	n := g.NumVars + 1
	s.vars = vars
	s.watches = make([][]int32, 2*n)
	s.assign = make([]cnf.Value, n)
	s.level = make([]int32, n)
	s.reason = make([]int32, n)
	s.activity = make([]float64, n)
	s.seen = make([]bool, n)
	for i := range s.reason {
		s.reason[i] = -1
	}
	for _, c := range g.Clauses {
		s.addClause(c)
		if s.unsat {
			return s
		}
	}
	return s
}

// addClause installs a problem clause, handling units and setting up
// watches. Clauses must be non-tautological and deduped, and the solver
// owns them. It is only called during construction (decision level 0),
// so the clause is filtered in place against the current assignment:
// true literals satisfy the clause permanently and false literals can
// never help.
func (s *Solver) addClause(c cnf.Clause) {
	filtered := c[:0]
	for _, l := range c {
		switch s.value(l) {
		case cnf.True:
			return // satisfied at level 0
		case cnf.Unassigned:
			filtered = append(filtered, l)
		}
	}
	c = filtered
	switch len(c) {
	case 0:
		s.unsat = true
		return
	case 1:
		switch s.value(c[0]) {
		case cnf.False:
			s.unsat = true
		case cnf.Unassigned:
			s.uncheckedEnqueue(c[0], -1)
			if s.propagate() >= 0 {
				s.unsat = true
			}
		}
		return
	}
	idx := int32(len(s.clauses))
	s.clauses = append(s.clauses, c)
	s.watches[c[0]] = append(s.watches[c[0]], idx)
	s.watches[c[1]] = append(s.watches[c[1]], idx)
}

func (s *Solver) value(l cnf.Lit) cnf.Value {
	v := s.assign[l.Var()]
	if l.IsNeg() {
		return v.Not()
	}
	return v
}

func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLim)) }

// uncheckedEnqueue asserts l with the given reason clause (-1 for
// decisions and top-level facts).
func (s *Solver) uncheckedEnqueue(l cnf.Lit, from int32) {
	val := cnf.True
	if l.IsNeg() {
		val = cnf.False
	}
	v := l.Var()
	s.assign[v] = val
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate runs two-watched-literal unit propagation until fixpoint.
// It returns the index of a conflicting clause, or -1.
func (s *Solver) propagate() int32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is now true; ~p is false
		s.qhead++
		falsified := p.Negate()
		ws := s.watches[falsified]
		kept := ws[:0]
		conflict := int32(-1)

		for wi := 0; wi < len(ws); wi++ {
			ci := ws[wi]
			c := s.clauses[ci]
			// Normalize: watched falsified literal at c[1].
			if c[0] == falsified {
				c[0], c[1] = c[1], c[0]
			}
			// Satisfied by the other watch?
			if s.value(c[0]) == cnf.True {
				kept = append(kept, ci)
				continue
			}
			// Find a new literal to watch.
			moved := false
			for k := 2; k < len(c); k++ {
				if s.value(c[k]) != cnf.False {
					c[1], c[k] = c[k], c[1]
					s.watches[c[1]] = append(s.watches[c[1]], ci)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, ci)
			if s.value(c[0]) == cnf.False {
				// Conflict: keep remaining watches, stop.
				for wj := wi + 1; wj < len(ws); wj++ {
					kept = append(kept, ws[wj])
				}
				conflict = ci
				s.qhead = len(s.trail)
				break
			}
			s.uncheckedEnqueue(c[0], ci)
			s.stats.Propagations++
		}
		s.watches[falsified] = kept
		if conflict >= 0 {
			return conflict
		}
	}
	return -1
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (asserting literal first) and the level to backtrack to.
func (s *Solver) analyze(confl int32) (cnf.Clause, int32) {
	learned := cnf.Clause{0} // slot 0 reserved for the asserting literal
	counter := 0
	var p cnf.Lit
	pValid := false
	idx := len(s.trail) - 1
	btLevel := int32(0)

	for {
		c := s.clauses[confl]
		start := 0
		if pValid {
			start = 1 // skip the asserting literal of the reason clause
		}
		for _, q := range c[start:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learned = append(learned, q)
				if s.level[v] > btLevel {
					btLevel = s.level[v]
				}
			}
		}
		// Walk the trail backwards to the next marked literal.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		pValid = true
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[p.Var()]
		idx--
	}
	learned[0] = p.Negate()

	// Move a literal of btLevel into position 1 so both watches are at
	// the two highest levels after backjump.
	if len(learned) > 1 {
		maxI := 1
		for i := 2; i < len(learned); i++ {
			if s.level[learned[i].Var()] > s.level[learned[maxI].Var()] {
				maxI = i
			}
		}
		learned[1], learned[maxI] = learned[maxI], learned[1]
	}
	for _, l := range learned {
		s.seen[l.Var()] = false
	}
	return learned, btLevel
}

func (s *Solver) bumpVar(v cnf.Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
}

// cancelUntil backtracks to the given decision level.
func (s *Solver) cancelUntil(level int32) {
	if s.decisionLevel() <= level {
		return
	}
	bound := int(s.trailLim[level])
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.assign[v] = cnf.Unassigned
		s.reason[v] = -1
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// pickBranchVar returns the unassigned variable with maximum VSIDS
// activity (ties to the smallest index), or 0 if none is left.
func (s *Solver) pickBranchVar() cnf.Var {
	best, bestAct := cnf.Var(0), -1.0
	for v := 1; v < len(s.assign); v++ {
		if s.assign[v] == cnf.Unassigned && s.activity[v] > bestAct {
			best, bestAct = cnf.Var(v), s.activity[v]
		}
	}
	return best
}

// luby returns the i-th element (1-based) of the Luby restart sequence.
func luby(i int64) int64 {
	// Find the subsequence: k such that i = 2^k - 1 -> 2^(k-1).
	for k := int64(1); ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}

// Solve runs the CDCL search to completion. It returns a satisfying
// assignment and true, or nil and false for UNSAT.
func (s *Solver) Solve() (cnf.Assignment, bool) {
	a, ok, _ := s.SolveCtx(context.Background())
	return a, ok
}

// SolveCtx runs the search under a context: cancellation is polled once
// per propagate/decide iteration and aborts the search with ctx.Err().
// A non-nil error means the verdict is unknown, not UNSAT.
func (s *Solver) SolveCtx(ctx context.Context) (cnf.Assignment, bool, error) {
	if s.unsat {
		return nil, false, nil
	}
	const restartBase = 100
	restartNum := int64(1)
	conflictsUntilRestart := luby(restartNum) * restartBase

	var iter int64
	for {
		if iter++; iter&63 == 1 {
			if err := ctx.Err(); err != nil {
				return nil, false, err
			}
		}
		confl := s.propagate()
		if confl >= 0 {
			s.stats.Conflicts++
			if s.decisionLevel() == 0 {
				return nil, false, nil
			}
			learned, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			if len(learned) == 1 {
				s.uncheckedEnqueue(learned[0], -1)
			} else {
				idx := int32(len(s.clauses))
				s.clauses = append(s.clauses, learned)
				s.watches[learned[0]] = append(s.watches[learned[0]], idx)
				s.watches[learned[1]] = append(s.watches[learned[1]], idx)
				s.uncheckedEnqueue(learned[0], idx)
				s.stats.Learned++
			}
			s.varInc /= varDecay
			conflictsUntilRestart--
			continue
		}

		if conflictsUntilRestart <= 0 {
			s.stats.Restarts++
			restartNum++
			conflictsUntilRestart = luby(restartNum) * restartBase
			s.cancelUntil(0)
			continue
		}

		v := s.pickBranchVar()
		if v == 0 {
			// Every variable assigned without conflict: model found.
			// The declared variables that occur in no clause are False,
			// as the False-first decision each would get never
			// propagates.
			a := cnf.AssignmentFromBits(0, s.nVars)
			for i, v := range s.vars {
				a.Set(v, s.assign[i+1])
			}
			return a, true, nil
		}
		s.stats.Decisions++
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		s.uncheckedEnqueue(cnf.Neg(v), -1) // false-first polarity
	}
}

// Stats returns the effort counters.
func (s *Solver) Stats() Stats { return s.stats }

// Solve is a one-shot convenience wrapper.
func Solve(f *cnf.Formula) (cnf.Assignment, bool) {
	return New(f).Solve()
}
