package noise

import (
	"math"
	"testing"
)

func moments(s Source, n int) (mean, variance, fourth float64) {
	var m1, m2, m4 float64
	for i := 0; i < n; i++ {
		x := s.Next()
		m1 += x
		m2 += x * x
		m4 += x * x * x * x
	}
	fn := float64(n)
	return m1 / fn, m2 / fn, m4 / fn
}

// kurtosis is E[X^4]/E[X^2]^2 of each family: 9/5 for uniforms, 3 for
// Gaussian, 1 for RTW and 1/density for pulse trains.
func kurtosis(f Family) float64 {
	switch f {
	case UniformHalf, UniformUnit:
		return 9.0 / 5
	case Gaussian:
		return 3
	case RTW:
		return 1
	default:
		return 1 / pulseDensity
	}
}

// correlation estimates the correlation operator <a(t)b(t)> of the
// paper (Definition 7) over the given number of samples.
func correlation(a, b Source, samples int) float64 {
	var sum float64
	for i := 0; i < samples; i++ {
		sum += float64(a.Next() * b.Next())
	}
	return sum / float64(samples)
}

func TestFamilyMoments(t *testing.T) {
	const n = 300000
	for _, f := range []Family{UniformHalf, UniformUnit, Gaussian, RTW, Pulse} {
		s := NewSource(f, 42, 7)
		mean, m2, m4 := moments(s, n)
		if math.Abs(mean) > 0.01 {
			t.Errorf("%v: mean = %v, want ~0", f, mean)
		}
		if math.Abs(m2-f.Sigma2()) > 0.01*math.Max(1, f.Sigma2()) {
			t.Errorf("%v: E[X^2] = %v, want %v", f, m2, f.Sigma2())
		}
		kurt := m4 / (m2 * m2)
		if math.Abs(kurt-kurtosis(f)) > 0.1 {
			t.Errorf("%v: kurtosis = %v, want %v", f, kurt, kurtosis(f))
		}
	}
}

func TestRTWIsBinary(t *testing.T) {
	s := NewSource(RTW, 1, 1)
	for i := 0; i < 1000; i++ {
		if x := s.Next(); x != 1 && x != -1 {
			t.Fatalf("RTW emitted %v", x)
		}
	}
}

func TestFamilyStringAndUnknownPanic(t *testing.T) {
	for _, f := range []Family{UniformHalf, UniformUnit, Gaussian, RTW} {
		if f.String() == "" {
			t.Errorf("family %d has empty name", f)
		}
	}
	if Family(99).String() == "" {
		t.Error("unknown family should still render")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewSource with unknown family must panic")
		}
	}()
	NewSource(Family(99), 1, 1)
}

func TestPairwiseIndependence(t *testing.T) {
	// Definition 7: <Vi Vj> = delta_ij (after variance normalization).
	const samples = 200000
	for _, f := range []Family{UniformHalf, UniformUnit, Gaussian, RTW, Pulse} {
		a := NewSource(f, 9, 0)
		b := NewSource(f, 9, 1)
		cross := correlation(a, b, samples) / f.Sigma2()
		if math.Abs(cross) > 0.02 {
			t.Errorf("%v: normalized cross-correlation = %v, want ~0", f, cross)
		}
		c := NewSource(f, 9, 2)
		d := NewSource(f, 9, 2)
		self := correlation(c, d, samples) / f.Sigma2()
		if math.Abs(self-1) > 0.02 {
			t.Errorf("%v: normalized self-correlation = %v, want ~1", f, self)
		}
	}
}

func TestProductOrthogonality(t *testing.T) {
	// The hyperspace property behind Section III: the product Z = V1*V2 of
	// two basis sources is orthogonal to any third basis source V3.
	const samples = 400000
	v1 := NewSource(UniformUnit, 4, 10)
	v2 := NewSource(UniformUnit, 4, 11)
	v3 := NewSource(UniformUnit, 4, 12)
	var sum float64
	for i := 0; i < samples; i++ {
		sum += v1.Next() * v2.Next() * v3.Next()
	}
	if got := sum / samples; math.Abs(got) > 0.02 {
		t.Errorf("<V1*V2, V3> = %v, want ~0", got)
	}
}

func fillAt(b *Bank, i uint64, pos, neg []float64) {
	b.FillBlockAt(i, 1, pos, neg)
}

func TestBankDeterminism(t *testing.T) {
	a := NewBank(UniformHalf, 77, 3, 4)
	b := NewBank(UniformHalf, 77, 3, 4)
	pa, na := make([]float64, 12), make([]float64, 12)
	pb, nb := make([]float64, 12), make([]float64, 12)
	for round := 0; round < 10; round++ {
		fillAt(a, uint64(round), pa, na)
		fillAt(b, uint64(round), pb, nb)
		for i := range pa {
			if pa[i] != pb[i] || na[i] != nb[i] {
				t.Fatalf("banks with same seed diverged at round %d index %d", round, i)
			}
		}
	}
}

func TestBankSeedsDiffer(t *testing.T) {
	a := NewBank(UniformHalf, 1, 2, 2)
	b := NewBank(UniformHalf, 2, 2, 2)
	pa, na := make([]float64, 4), make([]float64, 4)
	pb, nb := make([]float64, 4), make([]float64, 4)
	fillAt(a, 0, pa, na)
	fillAt(b, 0, pb, nb)
	same := 0
	for i := range pa {
		if pa[i] == pb[i] {
			same++
		}
	}
	if same == len(pa) {
		t.Error("different seeds produced identical samples")
	}
}

func TestBankSourcesAreIndependent(t *testing.T) {
	// Empirical pairwise correlation across a few bank source pairs.
	b := NewBank(UniformUnit, 5, 2, 3)
	const samples = 100000
	pos := make([]float64, 6)
	neg := make([]float64, 6)
	var crossPN, crossVars float64
	for i := 0; i < samples; i++ {
		fillAt(b, uint64(i), pos, neg)
		crossPN += pos[0] * neg[0]   // same var/clause, opposite polarity
		crossVars += pos[0] * pos[4] // different variables
	}
	if got := crossPN / samples; math.Abs(got) > 0.02 {
		t.Errorf("pos/neg correlation = %v, want ~0", got)
	}
	if got := crossVars / samples; math.Abs(got) > 0.02 {
		t.Errorf("cross-variable correlation = %v, want ~0", got)
	}
}

func TestBankAllFamiliesFill(t *testing.T) {
	for _, f := range []Family{UniformHalf, UniformUnit, Gaussian, RTW, Pulse} {
		b := NewBank(f, 3, 2, 2)
		pos, neg := make([]float64, 4), make([]float64, 4)
		fillAt(b, 0, pos, neg)
		for i := range pos {
			if math.IsNaN(pos[i]) || math.IsNaN(neg[i]) {
				t.Errorf("%v: NaN sample", f)
			}
		}
		if n, m := b.Dims(); n != 2 || m != 2 {
			t.Errorf("%v: Dims = (%d,%d)", f, n, m)
		}
	}
}

func TestBankFillLengthPanics(t *testing.T) {
	b := NewBank(UniformHalf, 1, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("FillBlockAt with wrong buffer length must panic")
		}
	}()
	b.FillBlockAt(0, 1, make([]float64, 3), make([]float64, 4))
}

func TestBankDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBank(0 vars) must panic")
		}
	}()
	NewBank(UniformHalf, 1, 0, 1)
}

func BenchmarkBankFillUniform(b *testing.B) {
	bank := NewBank(UniformHalf, 1, 20, 50)
	pos, neg := make([]float64, 1000), make([]float64, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.FillBlockAt(uint64(i), 1, pos, neg)
	}
}

func TestPulseIsSparseAndBipolar(t *testing.T) {
	s := NewSource(Pulse, 5, 3)
	zero, pos, neg := 0, 0, 0
	const n = 100000
	for i := 0; i < n; i++ {
		switch x := s.Next(); x {
		case 0:
			zero++
		case 2:
			pos++
		case -2:
			neg++
		default:
			t.Fatalf("pulse emitted %v", x)
		}
	}
	if frac := float64(zero) / n; math.Abs(frac-0.75) > 0.01 {
		t.Errorf("zero fraction = %v, want ~0.75", frac)
	}
	if math.Abs(float64(pos-neg))/n > 0.01 {
		t.Errorf("sign imbalance: +%d vs -%d", pos, neg)
	}
}

func TestPulseBankMatchesSource(t *testing.T) {
	// Bank and standalone sources must replay identical streams.
	b := NewBank(Pulse, 9, 1, 1)
	src0 := NewSource(Pulse, 9, 0)
	src1 := NewSource(Pulse, 9, 1)
	pos, neg := make([]float64, 1), make([]float64, 1)
	for i := 0; i < 200; i++ {
		fillAt(b, uint64(i), pos, neg)
		if pos[0] != src0.Next() || neg[0] != src1.Next() {
			t.Fatalf("bank/source divergence at step %d", i)
		}
	}
}

func TestFillBlockAtSeekable(t *testing.T) {
	// Blocks are addressable: filling [0, 64) as out-of-order chunks
	// must reproduce the sequential fill bit for bit, for every family.
	for _, f := range []Family{UniformHalf, UniformUnit, Gaussian, RTW, Pulse} {
		b := NewBank(f, 11, 2, 3)
		nm := 6
		const total = 64
		wantP, wantN := make([]float64, nm*total), make([]float64, nm*total)
		b.FillBlockAt(0, total, wantP, wantN)
		for _, chunk := range []struct{ base, k int }{
			{48, 16}, {0, 16}, {32, 16}, {16, 16},
		} {
			gotP, gotN := make([]float64, nm*chunk.k), make([]float64, nm*chunk.k)
			b.FillBlockAt(uint64(chunk.base), chunk.k, gotP, gotN)
			for src := 0; src < nm; src++ {
				for s := 0; s < chunk.k; s++ {
					wp := wantP[src*total+chunk.base+s]
					wn := wantN[src*total+chunk.base+s]
					if gotP[src*chunk.k+s] != wp || gotN[src*chunk.k+s] != wn {
						t.Fatalf("%v: seeked block at %d diverges at src %d sample %d",
							f, chunk.base, src, s)
					}
				}
			}
		}
	}
}

func TestNewSourceReplaysBank(t *testing.T) {
	// A source keyed by a bank index replays that bank source's stream;
	// the compiled analog netlist relies on it.
	for _, f := range []Family{UniformUnit, Gaussian, RTW, Pulse} {
		const seed = 13
		b := NewBank(f, seed, 2, 2)
		// Variable 2, clause 1 of a 2×2 bank: index ((2-1)·2 + 0)·2.
		srcPos := NewSource(f, seed, 4)
		srcNeg := NewSource(f, seed, 5)
		pos, neg := make([]float64, 4), make([]float64, 4)
		for i := 0; i < 50; i++ {
			fillAt(b, uint64(i), pos, neg)
			if got, want := srcPos.Next(), pos[2]; got != want {
				t.Fatalf("%v: NewSource(+) sample %d = %v, bank %v", f, i, got, want)
			}
			if got, want := srcNeg.Next(), neg[2]; got != want {
				t.Fatalf("%v: NewSource(-) sample %d = %v, bank %v", f, i, got, want)
			}
		}
	}
}

func TestReseedRestoresStreams(t *testing.T) {
	// Reseeding to another seed and back must restore the construction
	// streams exactly: the warm engines reuse one bank across checks.
	b := NewBank(UniformUnit, 3, 2, 2)
	pos, neg := make([]float64, 4), make([]float64, 4)
	fillAt(b, 5, pos, neg)
	first := pos[0]
	b.Reseed(4)
	fillAt(b, 5, pos, neg)
	if pos[0] == first {
		t.Error("Reseed(other seed) left the streams unchanged")
	}
	b.Reseed(3)
	fillAt(b, 5, pos, neg)
	if pos[0] != first {
		t.Error("Reseed(same seed) must restore the construction streams")
	}
}
