package dimacs

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/rng"
)

// Property: Write followed by Read is the identity on random formulas.
func TestRoundTripPropertyQuick(t *testing.T) {
	f := func(seed uint16, nRaw, mRaw uint8) bool {
		n := 1 + int(nRaw%12)
		m := int(mRaw % 40)
		g := rng.New(uint64(seed))
		k := 1 + g.Intn(min(3, n))
		formula := gen.RandomKSAT(g, n, m, k)
		doc := WriteString(formula, "quick round trip")
		back, err := ReadString(doc)
		if err != nil {
			return false
		}
		return back.String() == formula.String() && back.NumVars == formula.NumVars
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: the reader never panics on arbitrary byte soup — it must
// fail gracefully with an error or parse successfully.
func TestReaderRobustToGarbageQuick(t *testing.T) {
	f := func(junk []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = ReadString(string(junk))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: prepending comments and blank lines never changes the parse.
func TestCommentInsensitivityQuick(t *testing.T) {
	f := func(seed uint16) bool {
		g := rng.New(uint64(seed))
		formula := gen.RandomKSAT(g, 5, 10, 2)
		plain := WriteString(formula, "")
		commented := "c leading comment\n\nc another\n" + plain
		a, errA := ReadString(plain)
		b, errB := ReadString(commented)
		if errA != nil || errB != nil {
			return false
		}
		return a.String() == b.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
