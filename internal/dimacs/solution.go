package dimacs

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/cnf"
)

// WriteSolution emits a SAT-competition-style solution:
//
//	s SATISFIABLE            (or UNSATISFIABLE / UNKNOWN)
//	v 1 -2 3 0               (value lines, when satisfiable)
//
// status must be one of "SATISFIABLE", "UNSATISFIABLE", "UNKNOWN".
// For SATISFIABLE, model supplies the literal values; unassigned
// variables are emitted as negative (false) to keep the certificate
// total, matching solver conventions.
func WriteSolution(w io.Writer, status string, model cnf.Assignment) error {
	switch status {
	case "SATISFIABLE", "UNSATISFIABLE", "UNKNOWN":
	default:
		return fmt.Errorf("dimacs: invalid solution status %q", status)
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "s %s\n", status); err != nil {
		return err
	}
	if status == "SATISFIABLE" {
		if model == nil {
			return fmt.Errorf("dimacs: SATISFIABLE solution requires a model")
		}
		const perLine = 20
		count := 0
		for v := 1; v < len(model); v++ {
			if count%perLine == 0 {
				if count > 0 {
					if _, err := fmt.Fprintln(bw); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprint(bw, "v"); err != nil {
					return err
				}
			}
			lit := -v
			if model[v] == cnf.True {
				lit = v
			}
			if _, err := fmt.Fprintf(bw, " %d", lit); err != nil {
				return err
			}
			count++
		}
		if count > 0 {
			if _, err := fmt.Fprint(bw, " 0\n"); err != nil {
				return err
			}
		} else {
			if _, err := fmt.Fprintln(bw, "v 0"); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
