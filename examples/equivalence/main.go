// Equivalence checking — the EDA workload that motivates the paper's
// introduction. Two gate-level implementations of a 2-bit ripple-carry
// adder (one from AND/OR/XOR, one from NAND only) are combined into a
// miter circuit; the miter output can be 1 iff the circuits disagree on
// some input. The miter is Tseitin-encoded to CNF and decided with the
// NBL exact engine and CDCL; a deliberately buggy third implementation
// shows the SAT (inequivalent) case with its distinguishing input.
//
// Run: go run ./examples/equivalence
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/logic"
)

// adder2 builds a 2-bit ripple-carry adder: inputs a1 a0 b1 b0, outputs
// s1 s0 cout (sum and carry).
func adder2(c *logic.Circuit) {
	a0 := c.NewInput("a0")
	a1 := c.NewInput("a1")
	b0 := c.NewInput("b0")
	b1 := c.NewInput("b1")
	// bit 0: half adder
	s0 := c.Xor(a0, b0)
	c0 := c.And(a0, b0)
	// bit 1: full adder
	x1 := c.Xor(a1, b1)
	s1 := c.Xor(x1, c0)
	cout := c.Or(c.And(a1, b1), c.And(x1, c0))
	c.MarkOutput(s0)
	c.MarkOutput(s1)
	c.MarkOutput(cout)
}

// adder2Nand is the same function synthesized from NAND gates only.
func adder2Nand(c *logic.Circuit) {
	a0 := c.NewInput("a0")
	a1 := c.NewInput("a1")
	b0 := c.NewInput("b0")
	b1 := c.NewInput("b1")
	xor := func(x, y logic.Node) logic.Node {
		n := c.Nand(x, y)
		return c.Nand(c.Nand(x, n), c.Nand(y, n))
	}
	and := func(x, y logic.Node) logic.Node { return c.Not(c.Nand(x, y)) }
	or := func(x, y logic.Node) logic.Node { return c.Nand(c.Not(x), c.Not(y)) }
	s0 := xor(a0, b0)
	c0 := and(a0, b0)
	x1 := xor(a1, b1)
	s1 := xor(x1, c0)
	cout := or(and(a1, b1), and(x1, c0))
	c.MarkOutput(s0)
	c.MarkOutput(s1)
	c.MarkOutput(cout)
}

// adder2Buggy drops the carry into bit 1 (s1 = a1 XOR b1).
func adder2Buggy(c *logic.Circuit) {
	a0 := c.NewInput("a0")
	a1 := c.NewInput("a1")
	b0 := c.NewInput("b0")
	b1 := c.NewInput("b1")
	s0 := c.Xor(a0, b0)
	c0 := c.And(a0, b0)
	s1 := c.Xor(a1, b1) // bug: ignores c0
	cout := c.Or(c.And(a1, b1), c.And(c.Xor(a1, b1), c0))
	c.MarkOutput(s0)
	c.MarkOutput(s1)
	c.MarkOutput(cout)
}

func checkEquivalence(name string, build func(*logic.Circuit)) {
	golden := logic.New()
	adder2(golden)
	candidate := logic.New()
	build(candidate)

	miter, err := logic.Miter(golden, candidate)
	if err != nil {
		log.Fatal(err)
	}
	enc := logic.Tseitin(miter)
	enc.AssertTrue(miter.Outputs()[0])
	f := enc.F
	fmt.Printf("%s: miter CNF has %d variables, %d clauses\n",
		name, f.NumVars, f.NumClauses())

	// CDCL verdict (fast, complete), through the unified registry.
	r, err := repro.Solve(context.Background(), "cdcl", f, repro.Config{})
	if err != nil {
		log.Fatal(err)
	}
	sat := r.Status == repro.StatusSat
	// NBL exact verdict must agree (the miter CNF is too large for the
	// Monte-Carlo engine's SNR — exactly the Section III-F limit — so
	// the idealized engine stands in for it; see EXPERIMENTS.md).
	if f.NumVars <= 24 {
		if repro.ExactCheck(f) != sat {
			log.Fatalf("%s: NBL exact engine disagrees with CDCL", name)
		}
	}
	if !sat {
		fmt.Printf("%s: miter UNSAT -> circuits are EQUIVALENT\n\n", name)
		return
	}
	var inputs []bool
	for _, iv := range enc.InputVars {
		inputs = append(inputs, r.Assignment.Get(iv) == repro.True)
	}
	fmt.Printf("%s: miter SAT -> circuits DIFFER on input %v\n", name, inputs)
	fmt.Printf("  golden outputs: %v\n  buggy outputs:  %v\n\n",
		golden.Eval(inputs), candidate.Eval(inputs))
}

func main() {
	checkEquivalence("nand-resynthesis", adder2Nand)
	checkEquivalence("buggy-carry", adder2Buggy)
}
