package wire

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/noise"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, noise.RTW, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := New(31, noise.RTW, 1); err == nil {
		t.Error("n=31 accepted")
	}
	w, err := New(3, noise.RTW, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.HyperspaceSize() != 8 || w.StateCount() != "2^8" {
		t.Errorf("geometry: size=%d states=%s", w.HyperspaceSize(), w.StateCount())
	}
}

func TestEncodeValidatesMinterms(t *testing.T) {
	w, _ := New(2, noise.RTW, 1)
	if _, err := w.Encode([]uint64{4}); err == nil {
		t.Error("out-of-hyperspace minterm accepted")
	}
	if _, err := w.Contains(nil, 4, 10, 3); err == nil {
		t.Error("out-of-hyperspace query accepted")
	}
}

func TestContainsRTW(t *testing.T) {
	// RTW sources: membership reads are exact in expectation with unit
	// normalization.
	w, _ := New(3, noise.RTW, 7)
	set := []uint64{0b000, 0b101, 0b110}
	for q := uint64(0); q < 8; q++ {
		m, err := w.Contains(set, q, 60_000, 4)
		if err != nil {
			t.Fatal(err)
		}
		want := q == 0 || q == 5 || q == 6
		if m.Present != want {
			t.Errorf("minterm %03b: present=%v want %v (corr=%.3f z=%.1f)",
				q, m.Present, want, m.Correlation, m.ZScore)
		}
		target := 0.0
		if want {
			target = 1
		}
		if math.Abs(m.Correlation-target) > 0.1 {
			t.Errorf("minterm %03b: correlation %v, want ~%v", q, m.Correlation, target)
		}
	}
}

func TestContainsUniformFamilies(t *testing.T) {
	for _, fam := range []noise.Family{noise.UniformUnit, noise.UniformHalf} {
		w, _ := New(2, fam, 9)
		set := []uint64{0b01}
		in, err := w.Contains(set, 0b01, 200_000, 4)
		if err != nil {
			t.Fatal(err)
		}
		out, err := w.Contains(set, 0b10, 200_000, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !in.Present || out.Present {
			t.Errorf("%v: in=%v out=%v", fam, in.Present, out.Present)
		}
		// Normalized correlation targets 1 regardless of family variance.
		if math.Abs(in.Correlation-1) > 0.2 {
			t.Errorf("%v: normalized correlation %v, want ~1", fam, in.Correlation)
		}
	}
}

func TestMultiplicityDoublesCorrelation(t *testing.T) {
	w, _ := New(2, noise.RTW, 11)
	m, err := w.Contains([]uint64{0b11, 0b11}, 0b11, 60_000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Correlation-2) > 0.2 {
		t.Errorf("doubled minterm correlation = %v, want ~2", m.Correlation)
	}
}

func TestEmptySuperpositionContainsNothing(t *testing.T) {
	w, _ := New(2, noise.RTW, 13)
	for q := uint64(0); q < 4; q++ {
		m, err := w.Contains(nil, q, 20_000, 4)
		if err != nil {
			t.Fatal(err)
		}
		if m.Present {
			t.Errorf("empty wire claims to contain %02b", q)
		}
	}
}

func TestDecodeRoundTripQuick(t *testing.T) {
	// Property: Encode followed by Decode recovers exactly the chosen
	// subset (RTW, small n, generous samples).
	f := func(maskRaw uint8, seed uint16) bool {
		w, err := New(2, noise.RTW, uint64(seed))
		if err != nil {
			return false
		}
		var set []uint64
		for q := uint64(0); q < 4; q++ {
			if maskRaw&(1<<q) != 0 {
				set = append(set, q)
			}
		}
		got, err := w.Decode(set, 40_000, 4)
		if err != nil {
			return false
		}
		for q := uint64(0); q < 4; q++ {
			want := maskRaw&(1<<q) != 0
			if got[q] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestSignalSharesBasisAcrossEncodes(t *testing.T) {
	// Two signals from the same wire replay identical source streams:
	// encoding the same set twice yields identical samples.
	w, _ := New(3, noise.UniformUnit, 21)
	a, _ := w.Encode([]uint64{1, 2})
	b, _ := w.Encode([]uint64{1, 2})
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("signals from the same wire diverged")
		}
	}
}

func BenchmarkSignalNext(b *testing.B) {
	w, _ := New(8, noise.UniformUnit, 1)
	set := make([]uint64, 16)
	for i := range set {
		set[i] = uint64(i * 15 % 256)
	}
	sig, _ := w.Encode(set)
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += sig.Next()
	}
	_ = sink
}
