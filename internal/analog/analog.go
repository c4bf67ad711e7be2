// Package analog is a discrete-time block-diagram simulator for the
// hardware NBL-SAT engine sketched in Section V of the paper: "a
// plurality of adders (implementing configurable clauses), multipliers
// (implementing the conjunction operation among the clauses), and noise
// sources ... [and] an on-chip correlator block".
//
// Blocks are evaluated once per timestep in netlist order (a block's
// inputs must be created before it, so insertion order is a topological
// order). Noise sources have no inputs; the correlator carries state
// across steps. Compile lowers a CNF instance to a netlist of these four
// block kinds, which is experiment E8's end-to-end check that the
// paper's proposed architecture computes the same decision statistic as
// the mathematical engine.
package analog

import (
	"fmt"
	"math"

	"repro/internal/noise"
	"repro/internal/stats"
)

// Block is one circuit element. Step receives the current values of its
// input nets and returns its output value for this timestep.
type Block interface {
	Step(in []float64) float64
}

// Net identifies a block output within a netlist.
type Net int

// Netlist is a wired collection of blocks.
type Netlist struct {
	blocks []Block
	inputs [][]Net
	values []float64
}

// NewNetlist returns an empty netlist.
func NewNetlist() *Netlist { return &Netlist{} }

// Add inserts a block whose inputs are the given nets and returns the
// block's output net. Inputs must already exist.
func (n *Netlist) Add(b Block, inputs ...Net) Net {
	for _, in := range inputs {
		if int(in) < 0 || int(in) >= len(n.blocks) {
			panic(fmt.Sprintf("analog: input net %d does not exist", in))
		}
	}
	n.blocks = append(n.blocks, b)
	n.inputs = append(n.inputs, inputs)
	n.values = append(n.values, 0)
	return Net(len(n.blocks) - 1)
}

// Value returns the current output value of a net.
func (n *Netlist) Value(net Net) float64 { return n.values[net] }

// Step advances the simulation one timestep.
func (n *Netlist) Step() {
	scratch := make([]float64, 0, 8)
	for i, b := range n.blocks {
		scratch = scratch[:0]
		for _, in := range n.inputs[i] {
			scratch = append(scratch, n.values[in])
		}
		n.values[i] = b.Step(scratch)
	}
}

// Run advances the simulation by steps timesteps.
func (n *Netlist) Run(steps int64) {
	for i := int64(0); i < steps; i++ {
		n.Step()
	}
}

// NoiseBlock emits samples from a noise source.
type NoiseBlock struct{ Src *noise.Source }

// Step implements Block.
func (b *NoiseBlock) Step([]float64) float64 { return b.Src.Next() }

// Adder sums its inputs (an ideal analog summing junction).
type Adder struct{}

// Step implements Block.
func (Adder) Step(in []float64) float64 {
	s := 0.0
	for _, x := range in {
		s += x
	}
	return s
}

// Multiplier multiplies its inputs (an ideal analog mixer).
type Multiplier struct{}

// Step implements Block.
func (Multiplier) Step(in []float64) float64 {
	p := 1.0
	for _, x := range in {
		p *= x
	}
	return p
}

// Correlator accumulates the running mean and variance of its input —
// the paper's on-chip correlator that reads out the DC component of S_N.
type Correlator struct {
	w stats.Welford
}

// Step implements Block; the output is the running mean.
func (c *Correlator) Step(in []float64) float64 {
	c.w.Add(in[0])
	return c.w.Mean()
}

// Mean returns the accumulated mean.
func (c *Correlator) Mean() float64 { return c.w.Mean() }

// StdErr returns the standard error of the mean.
func (c *Correlator) StdErr() float64 { return c.w.StdErr() }

// Count returns the number of accumulated samples.
func (c *Correlator) Count() int64 { return c.w.Count() }

// ZScore returns Mean/StdErr (0 when undefined).
func (c *Correlator) ZScore() float64 {
	se := c.w.StdErr()
	if se == 0 || math.IsInf(se, 0) {
		return 0
	}
	return c.w.Mean() / se
}
