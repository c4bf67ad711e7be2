package dimacs

import (
	"strings"
	"testing"

	"repro/internal/cnf"
)

// solution is WriteSolution's document, failing the test on an error.
func solution(t *testing.T, status string, model cnf.Assignment) string {
	t.Helper()
	var sb strings.Builder
	if err := WriteSolution(&sb, status, model); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestSolutionDocument(t *testing.T) {
	model := cnf.AssignmentFromBools([]bool{true, false, true, true, false})
	if got, want := solution(t, "SATISFIABLE", model), "s SATISFIABLE\nv 1 -2 3 4 -5 0\n"; got != want {
		t.Errorf("5-variable model:\n got %q\nwant %q", got, want)
	}
	if got, want := solution(t, "SATISFIABLE", cnf.NewAssignment(0)), "s SATISFIABLE\nv 0\n"; got != want {
		t.Errorf("zero-variable model:\n got %q\nwant %q", got, want)
	}
}

func TestSolutionLongModelWraps(t *testing.T) {
	// Every third variable is unassigned, which is written false.
	model := cnf.NewAssignment(50)
	for v := 1; v <= 50; v++ {
		if v%3 != 0 {
			model.Set(cnf.Var(v), cnf.True)
		}
	}
	const want = "s SATISFIABLE\n" +
		"v 1 2 -3 4 5 -6 7 8 -9 10 11 -12 13 14 -15 16 17 -18 19 20\n" +
		"v -21 22 23 -24 25 26 -27 28 29 -30 31 32 -33 34 35 -36 37 38 -39 40\n" +
		"v 41 -42 43 44 -45 46 47 -48 49 50 0\n"
	if got := solution(t, "SATISFIABLE", model); got != want {
		t.Errorf("50-variable model:\n got %q\nwant %q", got, want)
	}
}

func TestSolutionUnsatAndUnknown(t *testing.T) {
	for _, status := range []string{"UNSATISFIABLE", "UNKNOWN"} {
		if got, want := solution(t, status, nil), "s "+status+"\n"; got != want {
			t.Errorf("%s: got %q, want %q", status, got, want)
		}
	}
}

func TestSolutionWriteErrors(t *testing.T) {
	var sb strings.Builder
	if err := WriteSolution(&sb, "MAYBE", nil); err == nil {
		t.Error("invalid status accepted")
	}
	if err := WriteSolution(&sb, "SATISFIABLE", nil); err == nil {
		t.Error("missing model accepted")
	}
	if sb.Len() != 0 {
		t.Errorf("a refused solution wrote %q", sb.String())
	}
}
