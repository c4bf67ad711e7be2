package logic

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cdcl"
	"repro/internal/cnf"
)

// rippleAdder builds a width-bit ripple-carry adder; inputs are
// a0..a(w-1), b0..b(w-1); outputs s0..s(w-1), carry-out.
func rippleAdder(c *Circuit, width int) {
	as := make([]Node, width)
	bs := make([]Node, width)
	for i := 0; i < width; i++ {
		as[i] = c.NewInput("a")
	}
	for i := 0; i < width; i++ {
		bs[i] = c.NewInput("b")
	}
	// Bit 0 is a half adder: there is no carry in.
	c.MarkOutput(c.Xor(as[0], bs[0]))
	carry := c.And(as[0], bs[0])
	for i := 1; i < width; i++ {
		x := c.Xor(as[i], bs[i])
		sum := c.Xor(x, carry)
		carry = c.Or(c.And(as[i], bs[i]), c.And(x, carry))
		c.MarkOutput(sum)
	}
	c.MarkOutput(carry)
}

// rippleAdderNorOnly is the same function synthesized from NOR gates.
func rippleAdderNorOnly(c *Circuit, width int) {
	as := make([]Node, width)
	bs := make([]Node, width)
	for i := 0; i < width; i++ {
		as[i] = c.NewInput("a")
	}
	for i := 0; i < width; i++ {
		bs[i] = c.NewInput("b")
	}
	not := func(x Node) Node { return c.Nor(x, x) }
	or := func(x, y Node) Node { return not(c.Nor(x, y)) }
	and := func(x, y Node) Node { return c.Nor(not(x), not(y)) }
	xor := func(x, y Node) Node { return and(or(x, y), not(and(x, y))) }
	c.MarkOutput(xor(as[0], bs[0]))
	carry := and(as[0], bs[0])
	for i := 1; i < width; i++ {
		x := xor(as[i], bs[i])
		sum := xor(x, carry)
		carry = or(and(as[i], bs[i]), and(x, carry))
		c.MarkOutput(sum)
	}
	c.MarkOutput(carry)
}

func TestRippleAdderComputesAddition(t *testing.T) {
	const width = 4
	c := New()
	rippleAdder(c, width)
	f := func(aRaw, bRaw uint8) bool {
		a := int(aRaw) & (1<<width - 1)
		b := int(bRaw) & (1<<width - 1)
		inputs := make([]bool, 2*width)
		for i := 0; i < width; i++ {
			inputs[i] = a&(1<<i) != 0
			inputs[width+i] = b&(1<<i) != 0
		}
		out := c.Eval(inputs)
		got := 0
		for i := 0; i <= width; i++ {
			if out[i] {
				got |= 1 << i
			}
		}
		return got == a+b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRippleAdderEquivalenceByMiter(t *testing.T) {
	const width = 3
	a := New()
	rippleAdder(a, width)
	b := New()
	rippleAdderNorOnly(b, width)
	m, err := Miter(a, b)
	if err != nil {
		t.Fatal(err)
	}
	enc := Tseitin(m)
	enc.AssertTrue(m.Outputs()[0])
	if model, sat := cdcl.Solve(enc.F); sat {
		var inputs []bool
		for _, iv := range enc.InputVars {
			inputs = append(inputs, model.Get(iv) == cnf.True)
		}
		t.Fatalf("NOR resynthesis differs on input %v: %v vs %v",
			inputs, a.Eval(inputs), b.Eval(inputs))
	}
}

func TestMiterDetectsSingleGateBug(t *testing.T) {
	// Flip one gate of the ripple adder (sum XOR -> XNOR at bit 1) and
	// the miter must find a distinguishing input.
	const width = 3
	golden := New()
	rippleAdder(golden, width)

	buggy := New()
	as := make([]Node, width)
	bs := make([]Node, width)
	for i := 0; i < width; i++ {
		as[i] = buggy.NewInput("a")
	}
	for i := 0; i < width; i++ {
		bs[i] = buggy.NewInput("b")
	}
	buggy.MarkOutput(buggy.Xor(as[0], bs[0]))
	carry := buggy.And(as[0], bs[0])
	for i := 1; i < width; i++ {
		x := buggy.Xor(as[i], bs[i])
		var sum Node
		if i == 1 {
			sum = buggy.Xnor(x, carry) // bug
		} else {
			sum = buggy.Xor(x, carry)
		}
		carry = buggy.Or(buggy.And(as[i], bs[i]), buggy.And(x, carry))
		buggy.MarkOutput(sum)
	}
	buggy.MarkOutput(carry)

	m, err := Miter(golden, buggy)
	if err != nil {
		t.Fatal(err)
	}
	enc := Tseitin(m)
	enc.AssertTrue(m.Outputs()[0])
	model, sat := cdcl.Solve(enc.F)
	if !sat {
		t.Fatal("single-gate bug not detected")
	}
	var inputs []bool
	for _, iv := range enc.InputVars {
		inputs = append(inputs, model.Get(iv) == cnf.True)
	}
	ga, gb := golden.Eval(inputs), buggy.Eval(inputs)
	same := true
	for i := range ga {
		if ga[i] != gb[i] {
			same = false
		}
	}
	if same {
		t.Error("counterexample does not distinguish the circuits")
	}
}

func TestTseitinModelCountEqualsInputSpace(t *testing.T) {
	// Without output constraints, the Tseitin CNF has exactly one model
	// per input assignment: 2^(2*width) for the adder.
	const width = 2
	c := New()
	rippleAdder(c, width)
	enc := Tseitin(c)
	// Count models by solving iteratively would be heavy; rely on the
	// structure: every input assignment extends uniquely. Spot-check by
	// brute force over input variables with unit clauses.
	for bits := 0; bits < 1<<(2*width); bits++ {
		f := &cnf.Formula{NumVars: enc.F.NumVars, Clauses: slices.Clone(enc.F.Clauses)}
		for i, iv := range enc.InputVars {
			if bits&(1<<i) != 0 {
				f.AddClause(cnf.Clause{cnf.Pos(iv)})
			} else {
				f.AddClause(cnf.Clause{cnf.Neg(iv)})
			}
		}
		if _, ok := cdcl.Solve(f); !ok {
			t.Fatalf("input %0*b: consistency CNF unsatisfiable", 2*width, bits)
		}
	}
}
