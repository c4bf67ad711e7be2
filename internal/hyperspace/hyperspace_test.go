package hyperspace

import (
	"math"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/noise"
)

// bruteSample recomputes one S_N sample by direct expansion of the
// superpositions, from the same sample matrices the evaluator uses.
// tau is the sum over all assignments consistent with bound of the
// product over (variable, clause) of the assigned literal's sample;
// Z_j is the sum over clause-j literals of naive leave-one-out products.
func bruteSample(f *cnf.Formula, pos, neg []float64, bound cnf.Assignment) Sample {
	n, m := f.NumVars, f.NumClauses()

	tau := 0.0
	for bits := uint64(0); bits < 1<<n; bits++ {
		ok := true
		for v := 1; v <= n; v++ {
			want := bound.Get(cnf.Var(v))
			bit := bits&(1<<(v-1)) != 0
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
			for j := 0; j < m; j++ {
				if bits&(1<<i) != 0 {
					term *= pos[i*m+j]
				} else {
					term *= neg[i*m+j]
				}
			}
		}
		tau += term
	}

	sigma := 1.0
	for j, c := range f.Clauses {
		z := 0.0
		for _, l := range c {
			v := int(l.Var()) - 1
			t := pos[v*m+j]
			if l.IsNeg() {
				t = neg[v*m+j]
			}
			for k := 0; k < n; k++ {
				if k != v {
					t *= pos[k*m+j] + neg[k*m+j]
				}
			}
			z += t
		}
		sigma *= z
	}

	return Sample{Tau: tau, Sigma: sigma, S: tau * sigma}
}

// twinBanks returns two identical banks so a test can consume samples in
// parallel with the evaluator.
func twinBanks(f *cnf.Formula, seed uint64) (*noise.Bank, *noise.Bank) {
	a := noise.NewBank(noise.UniformUnit, seed, f.NumVars, f.NumClauses())
	b := noise.NewBank(noise.UniformUnit, seed, f.NumVars, f.NumClauses())
	return a, b
}

func sampleClose(a, b Sample, tol float64) bool {
	return math.Abs(a.Tau-b.Tau) < tol &&
		math.Abs(a.Sigma-b.Sigma) < tol &&
		math.Abs(a.S-b.S) < tol
}

func TestStepMatchesBruteExpansion(t *testing.T) {
	formulas := []*cnf.Formula{
		gen.PaperExample6(),
		gen.PaperExample7(),
		gen.PaperSAT(),
		gen.PaperUNSAT(),
		gen.PaperExample5(),
		cnf.FromClauses([]int{1, -2, 3}, []int{-1, 2}, []int{2, 3}),
	}
	for fi, f := range formulas {
		evalBank, twin := twinBanks(f, uint64(100+fi))
		e := New(f, evalBank)
		nm := f.NumVars * f.NumClauses()
		pos, neg := make([]float64, nm), make([]float64, nm)
		for step := 0; step < 50; step++ {
			twin.FillBlockAt(uint64(step), 1, pos, neg)
			want := bruteSample(f, pos, neg, cnf.NewAssignment(f.NumVars))
			got := e.StepAt(uint64(step))
			if !sampleClose(got, want, 1e-9) {
				t.Fatalf("formula %d step %d: got %+v, want %+v", fi, step, got, want)
			}
		}
	}
}

func TestStepMatchesBruteWithBindings(t *testing.T) {
	f := gen.PaperExample6()
	bindings := []cnf.Assignment{
		{cnf.Unassigned, cnf.True, cnf.Unassigned},
		{cnf.Unassigned, cnf.False, cnf.Unassigned},
		{cnf.Unassigned, cnf.True, cnf.False},
		{cnf.Unassigned, cnf.False, cnf.True},
	}
	for bi, bound := range bindings {
		evalBank, twin := twinBanks(f, uint64(7*bi+1))
		e := New(f, evalBank)
		e.BindAll(bound)
		nm := f.NumVars * f.NumClauses()
		pos, neg := make([]float64, nm), make([]float64, nm)
		for step := 0; step < 30; step++ {
			twin.FillBlockAt(uint64(step), 1, pos, neg)
			want := bruteSample(f, pos, neg, bound)
			got := e.StepAt(uint64(step))
			if !sampleClose(got, want, 1e-9) {
				t.Fatalf("binding %d step %d: got %+v, want %+v", bi, step, got, want)
			}
		}
	}
}

func TestMeanConvergesToWeightedCount(t *testing.T) {
	// E[S_N] = K' * sigma^(2nm). With UniformUnit sources sigma^2 = 1 so
	// the mean converges to K' itself: 2 for Example 6.
	f := gen.PaperExample6()
	bank := noise.NewBank(noise.UniformUnit, 42, f.NumVars, f.NumClauses())
	e := New(f, bank)
	const samples = 400000
	var sum float64
	for i := uint64(0); i < samples; i++ {
		sum += e.StepAt(i).S
	}
	mean := sum / samples
	if math.Abs(mean-2) > 0.25 {
		t.Errorf("mean S_N = %v, want ~2 (K' of Example 6)", mean)
	}
}

func TestMeanZeroForUNSAT(t *testing.T) {
	f := gen.PaperExample7()
	bank := noise.NewBank(noise.UniformUnit, 43, f.NumVars, f.NumClauses())
	e := New(f, bank)
	const samples = 200000
	var sum float64
	for i := uint64(0); i < samples; i++ {
		sum += e.StepAt(i).S
	}
	mean := sum / samples
	if math.Abs(mean) > 0.05 {
		t.Errorf("mean S_N = %v for UNSAT instance, want ~0", mean)
	}
}

func TestFullBindingSelectsSingleMinterm(t *testing.T) {
	// With every variable bound, tau is a single noise minterm; for a
	// satisfying assignment of Example 6, E[S] = prod_j t_j(a) = 1, and
	// for a falsifying one E[S] = 0.
	f := gen.PaperExample6()
	for bits := uint64(0); bits < 4; bits++ {
		a := cnf.AssignmentFromBits(bits, 2)
		bank := noise.NewBank(noise.UniformUnit, 50+bits, 2, 2)
		e := New(f, bank)
		e.BindAll(a)
		const samples = 300000
		var sum float64
		for i := uint64(0); i < samples; i++ {
			sum += e.StepAt(i).S
		}
		mean := sum / samples
		want := 0.0
		if a.Satisfies(f) {
			want = 1
		}
		if math.Abs(mean-want) > 0.1 {
			t.Errorf("assignment %s: mean = %v, want ~%v", a, mean, want)
		}
	}
}

func TestNewValidatesDims(t *testing.T) {
	f := gen.PaperExample6()
	bank := noise.NewBank(noise.UniformHalf, 1, 3, 2) // wrong n
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch must panic")
		}
	}()
	New(f, bank)
}

func BenchmarkStepSmall(b *testing.B) {
	f := gen.PaperSAT()
	bank := noise.NewBank(noise.UniformHalf, 1, f.NumVars, f.NumClauses())
	e := New(f, bank)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += e.StepAt(uint64(i)).S
	}
	_ = sink
}

func BenchmarkStepMedium(b *testing.B) {
	f := cnf.New(10)
	for j := 0; j < 30; j++ {
		f.Add(j%10+1, -(((j + 3) % 10) + 1), ((j+5)%10)+1)
	}
	bank := noise.NewBank(noise.UniformUnit, 1, f.NumVars, f.NumClauses())
	e := New(f, bank)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += e.StepAt(uint64(i)).S
	}
	_ = sink
}
