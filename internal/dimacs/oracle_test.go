package dimacs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/cnf"
)

// oracleRead is the line-scanning reader that Parse replaced, kept
// verbatim as the oracle FuzzReadWriteRoundTrip holds Parse to: the
// same formula, or the same error text, on every document whose lines
// fit its 16 MiB scanner and that names no variable above cnf.MaxVar
// (it wraps such names into the int32 literal encoding).
func oracleRead(r io.Reader) (*cnf.Formula, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	var (
		f            *cnf.Formula
		declVars     int
		declClauses  = -1
		current      cnf.Clause
		line         int
		sawProbLine  bool
		clausesAdded int
	)

	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "c") {
			continue
		}
		if strings.HasPrefix(text, "%") {
			// SATLIB end-of-stream trailer ("%" then "0"): stop reading so
			// the trailing 0 is not misparsed as an empty clause.
			break
		}
		if strings.HasPrefix(text, "p") {
			if sawProbLine {
				return nil, &ParseError{line, "duplicate problem line"}
			}
			fields := strings.Fields(text)
			if len(fields) != 4 || fields[0] != "p" || fields[1] != "cnf" {
				return nil, &ParseError{line, fmt.Sprintf("malformed problem line %q", text)}
			}
			var err error
			declVars, err = strconv.Atoi(fields[2])
			if err != nil || declVars < 0 {
				return nil, &ParseError{line, fmt.Sprintf("bad variable count %q", fields[2])}
			}
			declClauses, err = strconv.Atoi(fields[3])
			if err != nil || declClauses < 0 {
				return nil, &ParseError{line, fmt.Sprintf("bad clause count %q", fields[3])}
			}
			f = cnf.New(declVars)
			sawProbLine = true
			continue
		}
		if !sawProbLine {
			return nil, &ParseError{line, "clause data before problem line"}
		}
		for _, tok := range strings.Fields(text) {
			x, err := strconv.Atoi(tok)
			if err != nil {
				return nil, &ParseError{line, fmt.Sprintf("bad literal %q", tok)}
			}
			if x == 0 {
				f.AddClause(current)
				clausesAdded++
				current = nil
				continue
			}
			v := x
			if v < 0 {
				v = -v
			}
			if v > declVars {
				return nil, &ParseError{line,
					fmt.Sprintf("literal %d exceeds declared variable count %d", x, declVars)}
			}
			current = append(current, cnf.FromDIMACS(x))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dimacs: %w", err)
	}
	if !sawProbLine {
		return nil, &ParseError{line, "missing problem line"}
	}
	if len(current) > 0 { // tolerate missing trailing 0
		f.AddClause(current)
		clausesAdded++
	}
	if clausesAdded != declClauses {
		return nil, &ParseError{line,
			fmt.Sprintf("problem line declares %d clauses, found %d", declClauses, clausesAdded)}
	}
	// AddClause may have grown NumVars beyond the declaration only if a
	// literal exceeded declVars, which we rejected above; restore the
	// declared count in case it is larger than any mentioned variable.
	f.NumVars = declVars
	return f, nil
}
