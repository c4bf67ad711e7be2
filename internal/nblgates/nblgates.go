// Package nblgates realizes Boolean gates on noise carriers, after the
// scheme of the paper's foundational references [13] (Kish, "Thermal
// noise driven computing") and [14]: every node of a logic network owns
// a pair of orthogonal reference noise processes H (logic 1) and L
// (logic 0); a wire transmits the reference corresponding to its value;
// and a gate reads its inputs by *correlating* the incoming signal
// against the driver's H reference — positive correlation means 1 —
// then re-transmits its own reference for the computed output.
//
// This is the gate-level counterpart of the NBL-SAT engine: the same
// correlation read-out, applied per gate instead of once per formula.
// Because the read-out is a finite-window estimate, gates have a
// measurable soft-error rate that shrinks with the correlation window —
// which the tests quantify. A deterministic logic system built on noise,
// exactly as the paper's Section I insists.
package nblgates

import (
	"fmt"
	"math"

	"repro/internal/logic"
	"repro/internal/noise"
	"repro/internal/stats"
)

// Options configures a noise-gate evaluation.
type Options struct {
	// Family selects the carrier family. Default UniformUnit.
	Family noise.Family
	// Seed derives every node's reference processes.
	Seed uint64
	// Window is the correlation window per gate-input read, in samples.
	// Default 2000.
	Window int
	// Theta is the read-out decision threshold in standard errors.
	// Default 4.
	Theta float64
}

func (o Options) withDefaults() Options {
	if o.Window == 0 {
		o.Window = 2000
	}
	if o.Theta == 0 {
		o.Theta = 4
	}
	// Family's zero value is UniformHalf, the paper's reference family;
	// it is honored as given (an enum cannot distinguish "unset").
	return o
}

// Stats reports the cost and reliability bookkeeping of one evaluation.
type Stats struct {
	// Correlations is the number of gate-input read-outs performed.
	Correlations int
	// SamplesUsed is the total noise samples consumed.
	SamplesUsed int64
	// MinOneZ is the smallest z among read-outs that decided logic 1:
	// the evaluation's weakest positive decision margin (+Inf when no
	// read returned 1). Zero-readings legitimately hover near z = 0, so
	// they carry no margin information and are excluded.
	MinOneZ float64
}

// Evaluate runs the combinational circuit on noise carriers and returns
// the primary output values together with read-out statistics.
//
// Every node i owns reference processes H_i (key 2i) and L_i (key 2i+1)
// derived from opts.Seed. Input nodes transmit their assigned reference;
// every gate reads each fanin by correlation and transmits its own
// reference for the computed value.
func Evaluate(c *logic.Circuit, inputs []bool, opts Options) ([]bool, Stats, error) {
	o := opts.withDefaults()
	if len(inputs) != len(c.Inputs()) {
		return nil, Stats{}, fmt.Errorf("nblgates: %d inputs for a circuit with %d",
			len(inputs), len(c.Inputs()))
	}

	// values tracks which reference each driven node currently
	// transmits. The noise evaluation never propagates these bits
	// between gates directly: every gate re-reads its fanins through the
	// correlator, so read-out noise affects downstream logic exactly as
	// it would in the physical scheme.
	values := make(map[logic.Node]bool)
	var st Stats
	st.MinOneZ = math.Inf(1)

	readBit := func(n logic.Node) (bool, error) {
		// The line carries H_n or L_n depending on values[n]; correlate
		// it against a fresh replay of H_n.
		carried, ok := values[n]
		if !ok {
			return false, fmt.Errorf("nblgates: node %d read before being driven", n)
		}
		var signal noise.Source
		if carried {
			signal = noise.NewSource(o.Family, o.Seed, uint64(2*int(n)))
		} else {
			signal = noise.NewSource(o.Family, o.Seed, uint64(2*int(n)+1))
		}
		ref := noise.NewSource(o.Family, o.Seed, uint64(2*int(n)))
		var acc stats.Welford
		for i := 0; i < o.Window; i++ {
			acc.Add(signal.Next() * ref.Next())
		}
		st.Correlations++
		st.SamplesUsed += int64(o.Window)
		se := acc.StdErr()
		var z float64
		switch {
		case se > 0 && !math.IsInf(se, 0):
			z = acc.Mean() / se
		case acc.Mean() > 0:
			// Zero-variance positive correlation: an exact carrier match
			// (RTW signal times itself is identically +1).
			z = math.Inf(1)
		}
		one := z > o.Theta
		if one && z < st.MinOneZ {
			st.MinOneZ = z
		}
		return one, nil
	}

	err := logic.Walk(c, func(n logic.Node, g logic.GateType, ins []logic.Node, inputIdx int) error {
		switch g {
		case logic.Input:
			values[n] = inputs[inputIdx]
			return nil
		}
		bits := make([]bool, len(ins))
		for i, in := range ins {
			b, err := readBit(in)
			if err != nil {
				return err
			}
			bits[i] = b
		}
		values[n] = applyGate(g, bits)
		return nil
	})
	if err != nil {
		return nil, st, err
	}

	outs := make([]bool, 0, len(c.Outputs()))
	for _, out := range c.Outputs() {
		b, err := readBit(out)
		if err != nil {
			return nil, st, err
		}
		outs = append(outs, b)
	}
	return outs, st, nil
}

// applyGate computes the Boolean function of a gate type on read bits.
func applyGate(g logic.GateType, bits []bool) bool {
	switch g {
	case logic.Not:
		return !bits[0]
	case logic.Buf:
		return bits[0]
	case logic.And, logic.Nand:
		v := true
		for _, b := range bits {
			v = v && b
		}
		return v != (g == logic.Nand)
	case logic.Or, logic.Nor:
		v := false
		for _, b := range bits {
			v = v || b
		}
		return v != (g == logic.Nor)
	case logic.Xor:
		return bits[0] != bits[1]
	case logic.Xnor:
		return bits[0] == bits[1]
	default:
		panic(fmt.Sprintf("nblgates: unsupported gate %v", g))
	}
}
