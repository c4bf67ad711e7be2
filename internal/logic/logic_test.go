package logic

import (
	"testing"

	"repro/internal/cdcl"
	"repro/internal/cnf"
	"repro/internal/count"
)

// halfAdder builds sum/carry from two inputs.
func halfAdder(c *Circuit) (a, b, sum, carry Node) {
	a = c.NewInput("a")
	b = c.NewInput("b")
	sum = c.Xor(a, b)
	carry = c.And(a, b)
	c.MarkOutput(sum)
	c.MarkOutput(carry)
	return
}

// halfAdderNand builds the same function from NAND gates only.
func halfAdderNand(c *Circuit) {
	a := c.NewInput("a")
	b := c.NewInput("b")
	nab := c.Nand(a, b)
	sum := c.Nand(c.Nand(a, nab), c.Nand(b, nab))
	carry := c.Not(nab)
	c.MarkOutput(sum)
	c.MarkOutput(carry)
}

func TestEvalGateTypes(t *testing.T) {
	c := New()
	a := c.NewInput("a")
	b := c.NewInput("b")
	nodes := []Node{
		c.And(a, b), c.Or(a, b), c.Nand(a, b), c.Nor(a, b),
		c.Xor(a, b), c.Xnor(a, b), c.Not(a), c.Buf(a),
	}
	for _, n := range nodes {
		c.MarkOutput(n)
	}
	truth := map[[2]bool][]bool{
		{false, false}: {false, false, true, true, false, true, true, false},
		{false, true}:  {false, true, true, false, true, false, true, false},
		{true, false}:  {false, true, true, false, true, false, false, true},
		{true, true}:   {true, true, false, false, false, true, false, true},
	}
	for in, want := range truth {
		got := c.Eval(in[:])
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("inputs %v output %d: got %v, want %v", in, i, got[i], want[i])
			}
		}
	}
}

func TestEvalHalfAdder(t *testing.T) {
	c := New()
	halfAdder(c)
	cases := []struct {
		a, b, sum, carry bool
	}{
		{false, false, false, false},
		{false, true, true, false},
		{true, false, true, false},
		{true, true, false, true},
	}
	for _, tc := range cases {
		out := c.Eval([]bool{tc.a, tc.b})
		if out[0] != tc.sum || out[1] != tc.carry {
			t.Errorf("HA(%v,%v) = %v", tc.a, tc.b, out)
		}
	}
}

// TestTseitinConsistency: for every input assignment, the CNF restricted
// to the corresponding input literals has exactly one model, and that
// model matches the circuit evaluation on every node.
func TestTseitinConsistency(t *testing.T) {
	c := New()
	_, _, sum, carry := halfAdder(c)
	enc := Tseitin(c)
	for bits := 0; bits < 4; bits++ {
		inputs := []bool{bits&1 != 0, bits&2 != 0}
		f := enc.F.Clone()
		for i, iv := range enc.InputVars {
			if inputs[i] {
				f.AddClause(cnf.Clause{cnf.Pos(iv)})
			} else {
				f.AddClause(cnf.Clause{cnf.Neg(iv)})
			}
		}
		if got := count.Brute(f); got != 1 {
			t.Fatalf("inputs %v: %d models, want 1", inputs, got)
		}
		a, ok := cdcl.Solve(f)
		if !ok {
			t.Fatalf("inputs %v: consistency CNF unsatisfiable", inputs)
		}
		want := c.Eval(inputs)
		if (a.Get(enc.VarOf[sum]) == cnf.True) != want[0] ||
			(a.Get(enc.VarOf[carry]) == cnf.True) != want[1] {
			t.Errorf("inputs %v: CNF model disagrees with Eval", inputs)
		}
	}
}

func TestTseitinSatisfiabilityQuestions(t *testing.T) {
	// Can the AND of x and !x be 1? No.
	c := New()
	x := c.NewInput("x")
	bad := c.And(x, c.Not(x))
	c.MarkOutput(bad)
	enc := Tseitin(c)
	enc.AssertTrue(bad)
	if _, ok := cdcl.Solve(enc.F); ok {
		t.Error("x AND !x asserted true should be UNSAT")
	}
	// Can an XOR be 1? Yes.
	c2 := New()
	y := c2.Xor(c2.NewInput("a"), c2.NewInput("b"))
	c2.MarkOutput(y)
	enc2 := Tseitin(c2)
	enc2.AssertTrue(y)
	if _, ok := cdcl.Solve(enc2.F); !ok {
		t.Error("XOR asserted true should be SAT")
	}
}

func TestMiterEquivalentCircuits(t *testing.T) {
	a := New()
	halfAdder(a)
	b := New()
	halfAdderNand(b)
	m, err := Miter(a, b)
	if err != nil {
		t.Fatal(err)
	}
	enc := Tseitin(m)
	enc.AssertTrue(m.Outputs()[0])
	if _, ok := cdcl.Solve(enc.F); ok {
		t.Error("equivalent circuits: miter should be UNSAT")
	}
}

func TestMiterInequivalentCircuits(t *testing.T) {
	a := New()
	halfAdder(a)
	// A buggy variant: carry uses OR instead of AND.
	b := New()
	x := b.NewInput("a")
	y := b.NewInput("b")
	b.MarkOutput(b.Xor(x, y))
	b.MarkOutput(b.Or(x, y)) // bug
	m, err := Miter(a, b)
	if err != nil {
		t.Fatal(err)
	}
	enc := Tseitin(m)
	enc.AssertTrue(m.Outputs()[0])
	model, ok := cdcl.Solve(enc.F)
	if !ok {
		t.Fatal("inequivalent circuits: miter should be SAT")
	}
	// The model is a distinguishing input vector: verify it.
	var inputs []bool
	for _, iv := range enc.InputVars {
		inputs = append(inputs, model.Get(iv) == cnf.True)
	}
	oa, ob := a.Eval(inputs), b.Eval(inputs)
	same := oa[0] == ob[0] && oa[1] == ob[1]
	if same {
		t.Errorf("counterexample %v does not distinguish the circuits", inputs)
	}
}

func TestMiterValidation(t *testing.T) {
	a := New()
	a.MarkOutput(a.NewInput("x"))
	b := New()
	b.NewInput("x")
	b.NewInput("y")
	b.MarkOutput(b.Inputs()[0])
	if _, err := Miter(a, b); err == nil {
		t.Error("input count mismatch not detected")
	}
	c := New()
	c.NewInput("x")
	if _, err := Miter(c, c); err == nil {
		t.Error("no-output circuits not detected")
	}
}

func TestGateTypeString(t *testing.T) {
	if And.String() != "and" || GateType(99).String() == "" {
		t.Error("GateType.String broken")
	}
}

func TestPanics(t *testing.T) {
	c := New()
	for name, fn := range map[string]func(){
		"bad input node":  func() { c.And(Node(42)) },
		"empty nary":      func() { c.Or() },
		"bad output node": func() { c.MarkOutput(Node(9)) },
		"wrong eval len":  func() { c.Eval([]bool{true}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
