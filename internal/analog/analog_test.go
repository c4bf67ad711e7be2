package analog

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/hyperspace"
	"repro/internal/noise"
)

// constBlock emits a constant, a DC input for testing the other blocks.
type constBlock float64

func (c constBlock) Step([]float64) float64 { return float64(c) }

func TestBasicBlocks(t *testing.T) {
	nl := NewNetlist()
	c1 := nl.Add(constBlock(2))
	c2 := nl.Add(constBlock(3))
	sum := nl.Add(Adder{}, c1, c2)
	prod := nl.Add(Multiplier{}, c1, c2, sum)
	nl.Step()
	if nl.Value(sum) != 5 {
		t.Errorf("adder = %v, want 5", nl.Value(sum))
	}
	if nl.Value(prod) != 30 {
		t.Errorf("multiplier = %v, want 30", nl.Value(prod))
	}
}

func TestAddValidatesInputs(t *testing.T) {
	nl := NewNetlist()
	defer func() {
		if recover() == nil {
			t.Fatal("dangling input net must panic")
		}
	}()
	nl.Add(Adder{}, Net(3))
}

func TestCorrelatorTracksMean(t *testing.T) {
	nl := NewNetlist()
	src := nl.Add(&NoiseBlock{Src: noise.NewSource(noise.UniformUnit, 1, 0)})
	shifted := nl.Add(Adder{}, src, nl.Add(constBlock(0.7)))
	corr := &Correlator{}
	nl.Add(corr, shifted)
	nl.Run(100000)
	if math.Abs(corr.Mean()-0.7) > 0.02 {
		t.Errorf("correlator mean = %v, want ~0.7", corr.Mean())
	}
	if corr.Count() != 100000 {
		t.Errorf("count = %d", corr.Count())
	}
	if corr.ZScore() < 10 {
		t.Errorf("z-score = %v, want large", corr.ZScore())
	}
}

func TestCompileDecidesPaperInstances(t *testing.T) {
	// E8: the compiled hardware engine reproduces the SAT/UNSAT
	// decisions on the Section IV instances.
	for _, tc := range []struct {
		name string
		f    func() (sat bool, e *Engine)
	}{
		{"Example6", func() (bool, *Engine) {
			e, err := Compile(gen.PaperExample6(), noise.UniformUnit, 11)
			if err != nil {
				t.Fatal(err)
			}
			return true, e
		}},
		{"Example7", func() (bool, *Engine) {
			e, err := Compile(gen.PaperExample7(), noise.UniformUnit, 12)
			if err != nil {
				t.Fatal(err)
			}
			return false, e
		}},
	} {
		want, eng := tc.f()
		r := eng.Check(400_000, 4)
		if r.Satisfiable != want {
			t.Errorf("%s: hardware engine says %v, want %v (%+v)", tc.name, r.Satisfiable, want, r)
		}
	}
}

func TestCompiledEngineMatchesMathEngine(t *testing.T) {
	// The compiled netlist must produce numerically identical S_N samples
	// to the hyperspace evaluator when driven by the same seed.
	f := gen.PaperSAT()
	eng, err := Compile(f, noise.UniformHalf, 99)
	if err != nil {
		t.Fatal(err)
	}
	bank := noise.NewBank(noise.UniformHalf, 99, f.NumVars, f.NumClauses())
	ev := hyperspace.New(f, bank)
	for step := uint64(0); step < 200; step++ {
		eng.Net.Step()
		want := ev.StepAt(step)
		if math.Abs(eng.Net.Value(eng.SN)-want.S) > 1e-12 {
			t.Fatalf("step %d: netlist S_N = %v, evaluator = %v",
				step, eng.Net.Value(eng.SN), want.S)
		}
		if math.Abs(eng.Net.Value(eng.Tau)-want.Tau) > 1e-12 {
			t.Fatalf("step %d: tau mismatch", step)
		}
		if math.Abs(eng.Net.Value(eng.Sigma)-want.Sigma) > 1e-12 {
			t.Fatalf("step %d: sigma mismatch", step)
		}
	}
}

func TestCompileComponentBudget(t *testing.T) {
	// The paper's realizability argument rests on linear component
	// counts: 2nm sources, n + nm + m adders, and one multiplier per
	// literal plus trees.
	f := gen.PaperExample6() // n=2, m=2, 4 literals
	eng, err := Compile(f, noise.UniformHalf, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := eng.Blocks
	if b.NoiseSources != 8 {
		t.Errorf("noise sources = %d, want 2nm = 8", b.NoiseSources)
	}
	// Adders: n (tau factors) + nm (clause factors) + m (Z_j) = 2+4+2.
	if b.Adders != 8 {
		t.Errorf("adders = %d, want 8", b.Adders)
	}
	if b.Correlators != 1 {
		t.Errorf("correlators = %d, want 1", b.Correlators)
	}
	if b.String() == "" {
		t.Error("empty component summary")
	}
}

func TestCompileRejectsDegenerate(t *testing.T) {
	if _, err := Compile(gen.PaperExample6(), noise.UniformHalf, 1); err != nil {
		t.Fatalf("valid formula rejected: %v", err)
	}
	bad := gen.PaperExample6().Clone()
	bad.Clauses[0] = nil
	if _, err := Compile(bad, noise.UniformHalf, 1); err == nil {
		t.Error("empty clause accepted")
	}
	empty := gen.PaperExample6().Clone()
	empty.Clauses = nil
	if _, err := Compile(empty, noise.UniformHalf, 1); err == nil {
		t.Error("clause-free formula accepted")
	}
}
