// Package dimacs reads and writes CNF formulas in the DIMACS CNF format,
// the standard interchange format of the SAT community. The reader is
// tolerant of the common dialect variations found in benchmark archives:
// comment lines anywhere, clauses spanning multiple lines, multiple
// clauses per line, and a missing final terminating 0.
//
// SATLIB trailer dialect: the SATLIB benchmark archives (uf*/uuf* and
// friends) terminate every file with the two lines "%" and "0". A line
// whose first token is "%" is therefore treated as end-of-stream and
// everything after it is ignored. This matters for correctness, not just
// tolerance: read as clause data, the trailing "0" would terminate an
// empty clause, making every SATLIB instance either fail the declared
// clause count or — when the count happened to absorb it — silently
// become UNSAT. A bare "0" line before the trailer is still an explicit
// empty clause, as the format defines.
package dimacs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/cnf"
)

// ParseError describes a syntactic problem in a DIMACS stream.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("dimacs: line %d: %s", e.Line, e.Msg)
}

// Read parses a DIMACS CNF stream into a Formula: it reads r to the
// end and hands the bytes to Parse.
func Read(r io.Reader) (*cnf.Formula, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dimacs: %w", err)
	}
	return Parse(data)
}

// ReadString parses a DIMACS CNF document held in a string.
func ReadString(s string) (*cnf.Formula, error) {
	return Parse([]byte(s))
}

// Parse parses a DIMACS CNF document into a Formula. The declared
// variable count from the problem line is honored (it may exceed the
// largest variable mentioned) up to cnf.MaxVar, the largest variable a
// literal can hold; a clause count mismatch is an error, as is a
// literal outside the declared range.
//
// Parse makes one pass over data. Lines end at '\n' and tokens at white
// space as unicode.IsSpace defines it, so a body splits as
// strings.Fields would split its lines. Every literal lands in one
// arena sized by the bytes after the problem line, never by the counts
// it declares, and each clause is a capacity-capped slice of it.
func Parse(data []byte) (*cnf.Formula, error) {
	var (
		f           *cnf.Formula
		declClauses int
		arena       []cnf.Lit
		open        int // where the clause being read starts in arena
		line        int
	)
scan:
	for pos := 0; pos < len(data); {
		line++
		start, end := token(data, pos)
		switch {
		case start == end: // blank line
		case data[start] == 'c':
			end = lineEnd(data, start)
		case data[start] == '%':
			// SATLIB end-of-stream trailer ("%" then "0"): stop reading so
			// the trailing 0 is not misparsed as an empty clause.
			break scan
		case data[start] == 'p':
			if f != nil {
				return nil, &ParseError{line, "duplicate problem line"}
			}
			end = lineEnd(data, start)
			vars, clauses, msg := problemLine(strings.TrimSpace(string(data[start:end])))
			if msg != "" {
				return nil, &ParseError{line, msg}
			}
			// Every token but the last takes at least two bytes, so the
			// bytes left bound the literals and clauses still to come.
			most := (len(data)-end)/2 + 1
			arena = make([]cnf.Lit, 0, most)
			f = &cnf.Formula{NumVars: vars, Clauses: make([]cnf.Clause, 0, min(clauses, most))}
			declClauses = clauses
		case f == nil:
			return nil, &ParseError{line, "clause data before problem line"}
		default:
			for ; start < end; start, end = token(data, end) {
				x, err := strconv.Atoi(string(data[start:end]))
				switch {
				case err != nil:
					return nil, &ParseError{line, fmt.Sprintf("bad literal %q", data[start:end])}
				case x == 0:
					f.Clauses = append(f.Clauses, arena[open:len(arena):len(arena)])
					open = len(arena)
				case x > cnf.MaxVar || x < -cnf.MaxVar:
					return nil, &ParseError{line, fmt.Sprintf(
						"literal %d exceeds %d, the largest variable a literal can hold", x, cnf.MaxVar)}
				case x > f.NumVars || x < -f.NumVars:
					return nil, &ParseError{line,
						fmt.Sprintf("literal %d exceeds declared variable count %d", x, f.NumVars)}
				default:
					arena = append(arena, cnf.FromDIMACS(x))
				}
			}
		}
		pos = end + 1
	}
	if f == nil {
		return nil, &ParseError{line, "missing problem line"}
	}
	if len(arena) > open { // tolerate missing trailing 0
		f.Clauses = append(f.Clauses, arena[open:len(arena):len(arena)])
	}
	if len(f.Clauses) != declClauses {
		return nil, &ParseError{line,
			fmt.Sprintf("problem line declares %d clauses, found %d", declClauses, len(f.Clauses))}
	}
	return f, nil
}

// problemLine reads the counts of a "p cnf <vars> <clauses>" line, or
// says what is wrong with it.
func problemLine(text string) (vars, clauses int, msg string) {
	fields := strings.Fields(text)
	if len(fields) != 4 || fields[0] != "p" || fields[1] != "cnf" {
		return 0, 0, fmt.Sprintf("malformed problem line %q", text)
	}
	vars, err := strconv.Atoi(fields[2])
	switch {
	case err != nil || vars < 0:
		return 0, 0, fmt.Sprintf("bad variable count %q", fields[2])
	case vars > cnf.MaxVar:
		return 0, 0, fmt.Sprintf("variable count %d exceeds %d, the largest variable a literal can hold", vars, cnf.MaxVar)
	}
	if clauses, err = strconv.Atoi(fields[3]); err != nil || clauses < 0 {
		return 0, 0, fmt.Sprintf("bad clause count %q", fields[3])
	}
	return vars, clauses, ""
}

// asciiSpace is 1 at the ASCII bytes unicode.IsSpace accepts: their
// width as white space.
var asciiSpace = [utf8.RuneSelf]int{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// token returns the bounds of the next token of the line at data[i:],
// skipping the white space before it; start == end at the line's '\n'
// or at the end of data. A token ends at white space as unicode.IsSpace
// defines it, the split strings.Fields makes, and a rune is decoded only
// at a byte past ASCII. Stepping through a token byte by byte is safe:
// the continuation bytes of a multi-byte rune start no rune.
func token(data []byte, i int) (start, end int) {
	for i < len(data) && data[i] != '\n' {
		w := spaceAt(data, i)
		if w == 0 {
			break
		}
		i += w
	}
	start = i
	for i < len(data) && spaceAt(data, i) == 0 {
		i++
	}
	return start, i
}

// spaceAt returns the width of the white space rune at data[i], or 0.
func spaceAt(data []byte, i int) int {
	if b := data[i]; b < utf8.RuneSelf {
		return asciiSpace[b]
	}
	return wideSpaceAt(data, i)
}

func wideSpaceAt(data []byte, i int) int {
	if r, w := utf8.DecodeRune(data[i:]); unicode.IsSpace(r) {
		return w
	}
	return 0
}

// lineEnd returns the index of the '\n' that ends the line holding
// data[i], or len(data).
func lineEnd(data []byte, i int) int {
	if n := bytes.IndexByte(data[i:], '\n'); n >= 0 {
		return i + n
	}
	return len(data)
}

// Write emits the formula in DIMACS CNF format with an optional leading
// comment (may be multi-line; each line is prefixed with "c ").
func Write(w io.Writer, f *cnf.Formula, comment string) error {
	bw := bufio.NewWriter(w)
	if comment != "" {
		for _, ln := range strings.Split(comment, "\n") {
			if _, err := fmt.Fprintf(bw, "c %s\n", ln); err != nil {
				return err
			}
		}
	}
	if _, err := fmt.Fprintf(bw, "p cnf %d %d\n", f.NumVars, f.NumClauses()); err != nil {
		return err
	}
	for _, c := range f.Clauses {
		for _, l := range c {
			if _, err := fmt.Fprintf(bw, "%d ", l.DIMACS()); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw, "0"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteString renders the formula as a DIMACS CNF document.
func WriteString(f *cnf.Formula, comment string) string {
	var sb strings.Builder
	// strings.Builder writes cannot fail.
	_ = Write(&sb, f, comment)
	return sb.String()
}
