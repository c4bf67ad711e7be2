package dimacs

import (
	"errors"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cnf"
)

// FuzzReadWriteRoundTrip feeds arbitrary documents to the reader. It
// must return what oracleRead, the line-scanning reader it replaced,
// returns: the same formula or the same error text. The one exception
// is a document that names a variable above cnf.MaxVar, which the
// oracle wraps into the int32 literal encoding and the reader refuses
// on that line. Any accepted document must also re-read from its
// written form as the identical formula. The seed corpus covers the
// dialect variations the reader is documented to tolerate (multi-clause
// lines, clauses spanning lines, missing trailing 0, comments, SATLIB
// trailers, declared empty clauses, CRLF, signs, Unicode white space).
func FuzzReadWriteRoundTrip(f *testing.F) {
	for _, seed := range []string{
		"p cnf 3 2\n1 -2 3 0\n-1 2 0\n",
		"c comment\np cnf 2 2\n1 2 0 -1 -2 0\n",
		"p cnf 3 1\n1\n2\n-3 0\n",
		"p cnf 2 1\n1 2\n",
		"p cnf 3 2\n1 2 0\n-3 1 0\n%\n0\n",
		"p cnf 1 1\n0\n",
		"p cnf 2 3\n1 0\n0\n-2 0\n",
		"p cnf 10 1\n1 -2 0\n",
		"p cnf 0 0\n",
		"c only\nc comments\np cnf 1 1\n-1 0\n%\ntrailing junk 1 2 3\n",
		"c crlf\r\np cnf 3 2\r\n1 -3 0\r\n2 0\r\n",
		"p cnf 5 3\n+5 -1 0\n+0 -05 0\n",
		"p cnf 2 2\n1 -0\n-2 +0\n",
		"p cnf 2 1\n1 -2 0\n",
		" c nbsp comment\n\u0085p cnf 2 1\u0085\n1\u0085-2\u00850\n",
		"p cnf 2 1\v\n\v1\v-2 0\v\n",
		"p cnf 3 2\n1 -2 3 0\n-1 2 0\n%\n0\n\n",
		"p cnf 2 2\n1 0\n-2",
		"p cnf 2 1\n1 \xc2 0\n",
		"p cnf 2 1\n 1 -2 0　\n",
		"p cnf 1073741823 1\n1073741823 -1 0\n",
		"p cnf 5000000000 1\n4294967297 0\n",
		"p cnf 3 1\n1500000000 0\n",
		"p cnf 1 1\n-9223372036854775808 0\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		parsed, err := ReadString(doc)
		want, wantErr := oracleRead(strings.NewReader(doc))
		var pe, wantPE *ParseError
		if errors.As(err, &pe) && strings.Contains(pe.Msg, "the largest variable a literal can hold") {
			if !namesVarAboveMax(doc, pe.Line) || errors.As(wantErr, &wantPE) && wantPE.Line < pe.Line {
				t.Fatalf("refused %v; the oracle returned %v\ninput: %q", err, wantErr, doc)
			}
			return
		}
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("error %v, the oracle's %v\ninput: %q", err, wantErr, doc)
		}
		if err != nil {
			return
		}
		if !sameFormula(parsed, want) {
			t.Fatalf("parsed %d/%s, the oracle %d/%s\ninput: %q", parsed.NumVars, parsed, want.NumVars, want, doc)
		}
		out := WriteString(parsed, "")
		reparsed, err := ReadString(out)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\ninput: %q\ncanonical: %q", err, doc, out)
		}
		if !sameFormula(parsed, reparsed) {
			t.Fatalf("round trip changed %d/%s to %d/%s\ninput: %q",
				parsed.NumVars, parsed, reparsed.NumVars, reparsed, doc)
		}
	})
}

func sameFormula(a, b *cnf.Formula) bool {
	return a.NumVars == b.NumVars && slices.EqualFunc(a.Clauses, b.Clauses, slices.Equal)
}

// namesVarAboveMax reports whether the given 1-based line of doc holds
// a signed decimal token whose magnitude exceeds cnf.MaxVar.
func namesVarAboveMax(doc string, line int) bool {
	lines := strings.Split(doc, "\n")
	if line < 1 || line > len(lines) {
		return false
	}
	for _, tok := range strings.Fields(lines[line-1]) {
		if tok[0] == '+' || tok[0] == '-' {
			tok = tok[1:]
		}
		v, err := strconv.ParseUint(tok, 10, 64)
		if errors.Is(err, strconv.ErrRange) || err == nil && v > cnf.MaxVar {
			return true
		}
	}
	return false
}
