package hyperspace

import (
	"fmt"

	"repro/internal/cnf"
)

// Expanded evaluates the same hyperspace objects as Evaluator but by
// explicit enumeration of the 2^n noise minterms in tau_N and the
// per-clause cube subspaces in Sigma_N — the computation a system
// WITHOUT the superposition property would have to perform.
//
// It exists to quantify the paper's central claim: the factored NBL
// form costs O(n·m) per sample (Evaluator), while the expanded form
// costs O(2^n·n·m). The ablation benchmark pits the two against each
// other; their samples are bit-identical by construction, which the
// tests assert.
type Expanded struct {
	f    *cnf.Formula
	bank SampleSource
	n, m int

	bound    cnf.Assignment
	pos, neg []float64
}

// maxExpandVars caps enumeration at a size that still benchmarks in
// reasonable time.
const maxExpandVars = 24

// NewExpanded returns an enumeration-based evaluator.
func NewExpanded(f *cnf.Formula, bank SampleSource) *Expanded {
	n, m := bank.Dims()
	if n != f.NumVars || m != f.NumClauses() {
		panic(fmt.Sprintf("hyperspace: bank dims (%d,%d) do not match formula (%d,%d)",
			n, m, f.NumVars, f.NumClauses()))
	}
	if n > maxExpandVars {
		panic(fmt.Sprintf("hyperspace: Expanded limited to %d variables", maxExpandVars))
	}
	nm := n * m
	return &Expanded{
		f: f, bank: bank, n: n, m: m,
		bound: cnf.NewAssignment(n),
		pos:   make([]float64, nm),
		neg:   make([]float64, nm),
	}
}

// Bind constrains a variable in tau_N, as in Evaluator.Bind.
func (e *Expanded) Bind(v cnf.Var, val cnf.Value) { e.bound[v] = val }

// StepAt draws sample i from every source and evaluates by
// enumeration.
func (e *Expanded) StepAt(i uint64) Sample {
	e.bank.FillBlockAt(i, 1, e.pos, e.neg)
	n, m := e.n, e.m

	// tau_N: sum over all assignments consistent with the bindings of
	// the product over (variable, clause) of the selected literal
	// source.
	tau := 0.0
	for bits := uint64(0); bits < 1<<uint(n); bits++ {
		ok := true
		for v := 1; v <= n; v++ {
			want := e.bound[v]
			bit := bits&(1<<uint(v-1)) != 0
			if want == cnf.True && !bit || want == cnf.False && bit {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		term := 1.0
		for i := 0; i < n; i++ {
			row := i * m
			for j := 0; j < m; j++ {
				if bits&(1<<uint(i)) != 0 {
					term *= e.pos[row+j]
				} else {
					term *= e.neg[row+j]
				}
			}
		}
		tau += term
	}

	// Sigma_N: per clause, the sum over literals of the literal source
	// times the product of the other variables' (pos+neg) factors,
	// computed naively per literal.
	sigma := 1.0
	for j, c := range e.f.Clauses {
		z := 0.0
		for _, l := range c {
			v := int(l.Var()) - 1
			t := e.pos[v*m+j]
			if l.IsNeg() {
				t = e.neg[v*m+j]
			}
			for k := 0; k < n; k++ {
				if k != v {
					t *= e.pos[k*m+j] + e.neg[k*m+j]
				}
			}
			z += t
		}
		sigma *= z
	}

	return Sample{Tau: tau, Sigma: sigma, S: tau * sigma}
}
