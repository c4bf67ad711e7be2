package analog

import (
	"context"
	"fmt"

	"repro/internal/cnf"
	"repro/internal/noise"
)

// Engine is a compiled hardware NBL-SAT engine: a netlist realizing
// tau_N, Sigma_N, their product S_N, and a correlator reading out its
// mean, built exclusively from the component inventory of Section V
// (noise sources, adders, multipliers, correlator).
type Engine struct {
	Net *Netlist
	// SN is the net carrying S_N(t).
	SN Net
	// Tau and Sigma expose the intermediate superpositions.
	Tau, Sigma Net
	// Corr is the correlator block reading the mean of SN.
	Corr *Correlator
	// Blocks counts component usage by kind, for the paper's
	// "imminently realizable with existing technology" resource claim.
	Blocks ComponentCount
}

// ComponentCount tallies the analog bill of materials.
type ComponentCount struct {
	NoiseSources int
	Adders       int
	Multipliers  int
	Correlators  int
}

func (c ComponentCount) String() string {
	return fmt.Sprintf("%d noise sources, %d adders, %d multipliers, %d correlators",
		c.NoiseSources, c.Adders, c.Multipliers, c.Correlators)
}

// Compile lowers a CNF instance to a hardware engine netlist drawing
// from 2·n·m independent noise sources of the given family.
//
// Structure (mirroring Section III-C with Section V components):
//
//	pos[i][j], neg[i][j]           2nm noise source blocks
//	prodPos[i] = prod_j pos[i][j]  n multiplier trees (tau branch)
//	prodNeg[i] = prod_j neg[i][j]  n multiplier trees
//	tau = prod_i (prodPos[i] + prodNeg[i])   n adders + 1 multiplier
//	g[i][j] = pos[i][j] + neg[i][j]          nm adders (clause factors)
//	T^j_l = lit * prod_{k != i} g[k][j]      one multiplier per literal
//	Z_j = sum_l T^j_l                        m adders
//	Sigma = prod_j Z_j                       1 multiplier
//	S_N = tau * Sigma -> correlator
func Compile(f *cnf.Formula, fam noise.Family, seed uint64) (*Engine, error) {
	n, m := f.NumVars, f.NumClauses()
	if n < 1 || m < 1 {
		return nil, fmt.Errorf("analog: compile needs n >= 1 and m >= 1, got (%d,%d)", n, m)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	for j, c := range f.Clauses {
		if len(c) == 0 {
			return nil, fmt.Errorf("analog: clause %d is empty", j)
		}
	}

	eng := &Engine{Net: NewNetlist()}
	nl := eng.Net

	pos := make([]Net, n*m)
	neg := make([]Net, n*m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			k := i*m + j
			// Stream keys match the noise.Bank layout, so the compiled
			// engine samples the same processes as the mathematical engine.
			pos[k] = nl.Add(&NoiseBlock{Src: noise.NewSource(fam, seed, uint64(2*k))})
			neg[k] = nl.Add(&NoiseBlock{Src: noise.NewSource(fam, seed, uint64(2*k+1))})
			eng.Blocks.NoiseSources += 2
		}
	}

	mul := func(ins ...Net) Net {
		eng.Blocks.Multipliers++
		return nl.Add(Multiplier{}, ins...)
	}
	add := func(ins ...Net) Net {
		eng.Blocks.Adders++
		return nl.Add(Adder{}, ins...)
	}

	// tau_N.
	tauFactors := make([]Net, n)
	for i := 0; i < n; i++ {
		rowPos := make([]Net, m)
		rowNeg := make([]Net, m)
		for j := 0; j < m; j++ {
			rowPos[j] = pos[i*m+j]
			rowNeg[j] = neg[i*m+j]
		}
		tauFactors[i] = add(mul(rowPos...), mul(rowNeg...))
	}
	eng.Tau = mul(tauFactors...)

	// Clause factor adders g[i][j] = pos + neg.
	g := make([]Net, n*m)
	for k := range g {
		g[k] = add(pos[k], neg[k])
	}

	// Sigma_N.
	zs := make([]Net, m)
	for j, c := range f.Clauses {
		ts := make([]Net, len(c))
		for li, l := range c {
			i := int(l.Var()) - 1
			lit := pos[i*m+j]
			if l.IsNeg() {
				lit = neg[i*m+j]
			}
			ins := []Net{lit}
			for k := 0; k < n; k++ {
				if k != i {
					ins = append(ins, g[k*m+j])
				}
			}
			ts[li] = mul(ins...)
		}
		zs[j] = add(ts...)
	}
	eng.Sigma = mul(zs...)

	// S_N and its correlator.
	eng.SN = mul(eng.Tau, eng.Sigma)
	eng.Corr = &Correlator{}
	nl.Add(eng.Corr, eng.SN)
	eng.Blocks.Correlators++

	return eng, nil
}

// CheckResult is the decision of a hardware-engine run.
type CheckResult struct {
	Satisfiable bool
	Mean        float64
	StdErr      float64
	Samples     int64
}

// Check runs the engine for the given number of timesteps and applies
// the same mean-above-zero decision as the mathematical engine
// (theta standard errors).
func (e *Engine) Check(steps int64, theta float64) CheckResult {
	r, _ := e.CheckCtx(context.Background(), steps, theta)
	return r
}

// CheckCtx is Check with cancellation: the simulation advances in short
// bursts, polling ctx between them, and returns the partial CheckResult
// with ctx.Err() when the context ends.
func (e *Engine) CheckCtx(ctx context.Context, steps int64, theta float64) (CheckResult, error) {
	const burst = 4096
	for done := int64(0); done < steps; {
		if err := ctx.Err(); err != nil {
			return CheckResult{
				Mean:    e.Corr.Mean(),
				StdErr:  e.Corr.StdErr(),
				Samples: e.Corr.Count(),
			}, err
		}
		run := steps - done
		if run > burst {
			run = burst
		}
		e.Net.Run(run)
		done += run
	}
	z := e.Corr.ZScore()
	return CheckResult{
		Satisfiable: z > theta,
		Mean:        e.Corr.Mean(),
		StdErr:      e.Corr.StdErr(),
		Samples:     e.Corr.Count(),
	}, nil
}
