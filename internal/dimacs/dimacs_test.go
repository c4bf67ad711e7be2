package dimacs

import (
	"errors"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cnf"
	"repro/internal/gen"
	"repro/internal/rng"
)

const sample = `c paper Example 5
c S = (x1)(x2+!x3)(!x1+x3)(x1+!x2+x3)
p cnf 3 4
1 0
2 -3 0
-1 3 0
1 -2 3 0
`

func TestReadBasic(t *testing.T) {
	f, err := ReadString(sample)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 3 || f.NumClauses() != 4 {
		t.Fatalf("dims: %d vars %d clauses", f.NumVars, f.NumClauses())
	}
	if f.Clauses[1].String() != "(x2 + !x3)" {
		t.Errorf("clause 1 = %s", f.Clauses[1])
	}
}

func TestRoundTrip(t *testing.T) {
	f, err := ReadString(sample)
	if err != nil {
		t.Fatal(err)
	}
	out := WriteString(f, "round trip")
	g, err := ReadString(out)
	if err != nil {
		t.Fatalf("re-read: %v\n%s", err, out)
	}
	if g.String() != f.String() {
		t.Errorf("round trip changed formula:\n%s\nvs\n%s", f, g)
	}
}

func TestReadMultiClausePerLine(t *testing.T) {
	f, err := ReadString("p cnf 2 2\n1 2 0 -1 -2 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if f.NumClauses() != 2 {
		t.Errorf("clauses = %d, want 2", f.NumClauses())
	}
}

func TestReadClauseSpanningLines(t *testing.T) {
	f, err := ReadString("p cnf 3 1\n1\n-2\n3 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if f.NumClauses() != 1 || len(f.Clauses[0]) != 3 {
		t.Errorf("got %v", f.Clauses)
	}
}

func TestReadMissingTrailingZero(t *testing.T) {
	f, err := ReadString("p cnf 2 2\n1 2 0\n-1 -2\n")
	if err != nil {
		t.Fatal(err)
	}
	if f.NumClauses() != 2 {
		t.Errorf("clauses = %d, want 2", f.NumClauses())
	}
}

func TestReadPercentTerminator(t *testing.T) {
	// SATLIB benchmark files end with "%" and a stray "0".
	_, err := ReadString("p cnf 1 1\n1 0\n%\n")
	if err != nil {
		t.Fatalf("SATLIB-style terminator rejected: %v", err)
	}
}

func TestReadDeclaredVarsExceedMentioned(t *testing.T) {
	f, err := ReadString("p cnf 10 1\n1 -2 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 10 {
		t.Errorf("NumVars = %d, want declared 10", f.NumVars)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"clause before header": "1 2 0\np cnf 2 1\n",
		"duplicate header":     "p cnf 1 1\np cnf 1 1\n1 0\n",
		"malformed header":     "p cnf x 1\n1 0\n",
		"negative counts":      "p cnf -1 1\n1 0\n",
		"bad literal":          "p cnf 2 1\n1 foo 0\n",
		"literal out of range": "p cnf 2 1\n3 0\n",
		"clause count low":     "p cnf 2 3\n1 0\n",
		"clause count high":    "p cnf 2 1\n1 0\n2 0\n",
		"empty input":          "",
		"only comments":        "c nothing here\n",
	}
	for name, doc := range cases {
		if _, err := ReadString(doc); err == nil {
			t.Errorf("%s: expected error, got none", name)
		}
	}
}

func TestParseErrorMessage(t *testing.T) {
	_, err := ReadString("p cnf 2 1\nzap 0\n")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T, want *ParseError", err)
	}
	if pe.Line != 2 || !strings.Contains(pe.Error(), "line 2") {
		t.Errorf("ParseError = %v", pe)
	}
}

func TestParseRefusesVariablesPastMaxVar(t *testing.T) {
	for _, doc := range []string{
		"p cnf 5000000000 1\n4294967297 0\n", // read as (x1) by a reader that wraps
		"p cnf 1073741824 1\n1 0\n",
		"p cnf 3 1\n1500000000 0\n",
		"p cnf 1073741823 1\n1 -1073741824 0\n",
	} {
		_, err := Parse([]byte(doc))
		var pe *ParseError
		if !errors.As(err, &pe) || !strings.Contains(pe.Msg, strconv.Itoa(cnf.MaxVar)) {
			t.Errorf("%q: got %v, want a ParseError naming %d", doc, err, cnf.MaxVar)
		}
	}
	f, err := Parse([]byte("p cnf 1073741823 1\n-1073741823 0\n"))
	if err != nil || f.Clauses[0][0] != cnf.Neg(cnf.MaxVar) {
		t.Fatalf("the largest variable: %v, %v", f, err)
	}
}

// TestHugeHeaderCostsTheBody: Parse and Canonicalize allocate by the
// bytes of a body, not by the variable count its header declares, and
// the fingerprint is the one of the same clauses under a header that
// declares only the variables they use.
func TestHugeHeaderCostsTheBody(t *testing.T) {
	for _, tc := range []struct{ body, lean string }{
		{"p cnf 10000000 1\n1 -10000000 0\n", "p cnf 2 1\n1 -2 0\n"},
		{"p cnf 1000000000 1\n1 0\n", "p cnf 1 1\n1 0\n"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f, err := Parse([]byte(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		fp := cnf.Canonicalize(f).Fingerprint()
		runtime.ReadMemStats(&after)
		if bytes := after.TotalAlloc - before.TotalAlloc; bytes >= 64<<10 {
			t.Errorf("%q: Parse and Canonicalize allocated %d bytes", tc.body, bytes)
		}
		lean, err := ReadString(tc.lean)
		if err != nil {
			t.Fatal(err)
		}
		if want := cnf.Canonicalize(lean).Fingerprint(); fp != want {
			t.Errorf("%q fingerprints %s, %q %s", tc.body, fp, tc.lean, want)
		}
	}
}

func TestWriteComment(t *testing.T) {
	f := cnf.FromClauses([]int{1})
	out := WriteString(f, "two\nlines")
	if !strings.HasPrefix(out, "c two\nc lines\n") {
		t.Errorf("comment formatting:\n%s", out)
	}
}

func TestWriteEmptyFormula(t *testing.T) {
	f := cnf.New(0)
	out := WriteString(f, "")
	g, err := ReadString(out)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVars != 0 || g.NumClauses() != 0 {
		t.Errorf("empty formula round trip: %v", g)
	}
}

// BenchmarkParse reads a planted 50-variable, 210-clause 3-SAT body
// (about 2.5 KB), the size of the fleet's requests.
func BenchmarkParse(b *testing.B) {
	f, _ := gen.PlantedKSAT(rng.New(1), 50, 210, 3)
	body := []byte(WriteString(f, ""))
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Parse(body); err != nil {
			b.Fatal(err)
		}
	}
}
