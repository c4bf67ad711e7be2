package nblgates

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/noise"
)

// buildTestCircuit returns a circuit exercising every gate type:
// outputs = [and, or, nand, nor, xor, xnor, not, buf].
func buildTestCircuit() *logic.Circuit {
	c := logic.New()
	a := c.NewInput("a")
	b := c.NewInput("b")
	for _, n := range []logic.Node{
		c.And(a, b), c.Or(a, b), c.Nand(a, b), c.Nor(a, b),
		c.Xor(a, b), c.Xnor(a, b), c.Not(a), c.Buf(b),
	} {
		c.MarkOutput(n)
	}
	return c
}

func TestEvaluateMatchesBooleanEval(t *testing.T) {
	c := buildTestCircuit()
	for bits := 0; bits < 4; bits++ {
		inputs := []bool{bits&1 != 0, bits&2 != 0}
		want := c.Eval(inputs)
		got, st, err := Evaluate(c, inputs, Options{
			Family: noise.UniformUnit, Seed: uint64(10 + bits),
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("inputs %v output %d: noise eval %v, boolean %v",
					inputs, i, got[i], want[i])
			}
		}
		if st.Correlations == 0 || st.SamplesUsed == 0 {
			t.Error("no correlator activity recorded")
		}
	}
}

func TestEvaluateRTWCarriers(t *testing.T) {
	// RTW carriers give the tightest read-out; the half-adder must
	// evaluate correctly for every input.
	c := logic.New()
	a := c.NewInput("a")
	b := c.NewInput("b")
	c.MarkOutput(c.Xor(a, b))
	c.MarkOutput(c.And(a, b))
	for bits := 0; bits < 4; bits++ {
		inputs := []bool{bits&1 != 0, bits&2 != 0}
		got, _, err := Evaluate(c, inputs, Options{
			Family: noise.RTW, Seed: 7, Window: 500,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := c.Eval(inputs)
		if got[0] != want[0] || got[1] != want[1] {
			t.Errorf("inputs %v: got %v, want %v", inputs, got, want)
		}
	}
}

func TestEvaluateDeepCircuit(t *testing.T) {
	// A chain of 20 inverters: read-out errors would flip the parity.
	c := logic.New()
	x := c.NewInput("x")
	node := x
	for i := 0; i < 20; i++ {
		node = c.Not(node)
	}
	c.MarkOutput(node) // even number of inversions: identity
	for _, in := range []bool{false, true} {
		got, st, err := Evaluate(c, []bool{in}, Options{
			Family: noise.UniformUnit, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != in {
			t.Errorf("inverter chain(%v) = %v", in, got[0])
		}
		if st.MinOneZ <= 0 {
			t.Errorf("decision margin not tracked: %+v", st)
		}
	}
}

func TestEvaluateInputCountMismatch(t *testing.T) {
	c := buildTestCircuit()
	if _, _, err := Evaluate(c, []bool{true}, Options{}); err == nil {
		t.Error("input count mismatch accepted")
	}
}

func TestWindowControlsMargin(t *testing.T) {
	// Larger correlation windows must widen the weakest decision margin.
	c := logic.New()
	a := c.NewInput("a")
	c.MarkOutput(c.Buf(a))
	small, _, err := Evaluate(c, []bool{true}, Options{
		Family: noise.UniformUnit, Seed: 5, Window: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = small
	var zSmall, zBig float64
	_, stS, _ := Evaluate(c, []bool{true}, Options{Family: noise.UniformUnit, Seed: 5, Window: 200})
	_, stB, _ := Evaluate(c, []bool{true}, Options{Family: noise.UniformUnit, Seed: 5, Window: 20000})
	zSmall, zBig = stS.MinOneZ, stB.MinOneZ
	if zBig <= zSmall {
		t.Errorf("window 20000 margin (%v) should exceed window 200 margin (%v)", zBig, zSmall)
	}
}

func TestHalfAdderAllFamilies(t *testing.T) {
	c := logic.New()
	a := c.NewInput("a")
	b := c.NewInput("b")
	c.MarkOutput(c.Xor(a, b))
	c.MarkOutput(c.And(a, b))
	for _, fam := range []noise.Family{noise.UniformUnit, noise.RTW, noise.Gaussian} {
		got, _, err := Evaluate(c, []bool{true, true}, Options{Family: fam, Seed: 11, Window: 4000})
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != false || got[1] != true {
			t.Errorf("%v: HA(1,1) = %v, want [false true]", fam, got)
		}
	}
}
