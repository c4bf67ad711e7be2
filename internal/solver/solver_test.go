package solver

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cnf"
)

func init() {
	Register("test-fake", func(_ string, cfg Config) (Solver, error) {
		return Func(func(ctx context.Context, f *cnf.Formula) (Result, error) {
			return Result{Status: StatusSat, Stats: Stats{Decisions: int64(cfg.Seed)}}, nil
		}), nil
	})
	RegisterMeta("test-meta", func(inner string, cfg Config) (Solver, error) {
		return Func(func(ctx context.Context, f *cnf.Formula) (Result, error) {
			return Result{Status: StatusSat, Engine: "test-meta-saw:" + inner}, nil
		}), nil
	})
}

func TestStatusString(t *testing.T) {
	cases := map[Status]string{
		StatusSat:     "SATISFIABLE",
		StatusUnsat:   "UNSATISFIABLE",
		StatusUnknown: "UNKNOWN",
	}
	for st, want := range cases {
		if got := st.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", st, got, want)
		}
	}
	if StatusUnknown.Definitive() {
		t.Error("UNKNOWN must not be definitive")
	}
	if !StatusSat.Definitive() || !StatusUnsat.Definitive() {
		t.Error("SAT and UNSAT must be definitive")
	}
}

func TestNewUnknownEngine(t *testing.T) {
	if _, err := NewWith("no-such-engine", Config{}); err == nil {
		t.Fatal("expected error for unknown engine")
	} else if !strings.Contains(err.Error(), "no-such-engine") {
		t.Errorf("error should name the engine: %v", err)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate Register")
		}
	}()
	Register("test-fake", func(string, Config) (Solver, error) { return nil, nil })
}

func TestEnginesSortedAndContainsRegistered(t *testing.T) {
	names := Engines()
	found := false
	for i, n := range names {
		if n == "test-fake" {
			found = true
		}
		if i > 0 && names[i-1] > n {
			t.Fatalf("Engines() not sorted: %v", names)
		}
	}
	if !found {
		t.Fatalf("Engines() = %v, missing test-fake", names)
	}
}

func TestNamedWrapperStampsEngineAndWall(t *testing.T) {
	s, err := NewWith("test-fake", Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Solve(context.Background(), cnf.FromClauses([]int{1}))
	if err != nil {
		t.Fatal(err)
	}
	if r.Engine != "test-fake" {
		t.Errorf("Engine = %q, want test-fake", r.Engine)
	}
	if r.Stats.Decisions != 7 {
		t.Errorf("config not threaded: Decisions = %d, want 7", r.Stats.Decisions)
	}
	if r.Wall < 0 {
		t.Errorf("Wall = %v", r.Wall)
	}
}

// Meta-expression error paths: the happy paths ("pre(mc)" etc.) are
// covered by the pipeline and conformance suites; these pin down the
// parser's rejections.

func TestMetaExpressionUnbalancedParens(t *testing.T) {
	for _, name := range []string{
		"test-meta(test-fake",  // missing close
		"test-meta test-fake)", // missing open: ')' suffix but '(' absent
		"(test-fake)",          // empty meta name
	} {
		if _, err := NewWith(name, Config{}); err == nil {
			t.Errorf("NewWith(%q): expected an error, got none", name)
		} else if !strings.Contains(err.Error(), "unknown engine") {
			t.Errorf("NewWith(%q): error should be an unknown-engine rejection, got %v", name, err)
		}
	}
}

func TestMetaExpressionEmptyInner(t *testing.T) {
	_, err := NewWith("test-meta()", Config{})
	if err == nil {
		t.Fatal("expected empty-inner construction to fail")
	}
	if !strings.Contains(err.Error(), "empty inner") {
		t.Errorf("the registry should refuse an empty inner expression by name: %v", err)
	}
}

func TestMetaExpressionUnknownMetaName(t *testing.T) {
	_, err := NewWith("no-such-meta(test-fake)", Config{})
	if err == nil {
		t.Fatal("expected error for unknown meta name")
	}
	if !strings.Contains(err.Error(), "no-such-meta(test-fake)") {
		t.Errorf("error should quote the full expression: %v", err)
	}
	if !strings.Contains(err.Error(), "test-meta") {
		t.Errorf("error should list the registered metas: %v", err)
	}
}

func TestMetaExpressionUnknownInnerEngine(t *testing.T) {
	// The registry resolves the inner expression, then hands it to the
	// meta factory verbatim. The test meta does not construct it, so the
	// Result's Engine shows the string the factory received.
	s, err := NewWith("test-meta(test-meta(test-fake))", Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Solve(context.Background(), cnf.FromClauses([]int{1}))
	if err != nil {
		t.Fatal(err)
	}
	if r.Engine != "test-meta-saw:test-meta(test-fake)" {
		t.Errorf("nested inner expression mangled: %q", r.Engine)
	}
	// An unknown inner engine is refused at construction, by name.
	if _, err := NewWith("test-meta(no-such-inner)", Config{}); err == nil ||
		!strings.Contains(err.Error(), "no-such-inner") {
		t.Errorf("unknown inner engine: %v", err)
	}
}

func TestMetasListsRegisteredMetaEngines(t *testing.T) {
	names := Metas()
	found := false
	for i, n := range names {
		if n == "test-meta" {
			found = true
		}
		if i > 0 && names[i-1] > n {
			t.Fatalf("Metas() not sorted: %v", names)
		}
	}
	if !found {
		t.Fatalf("Metas() = %v, missing test-meta", names)
	}
}

func TestRegisterMetaCollisionsPanic(t *testing.T) {
	cases := []func(){
		func() { RegisterMeta("test-meta", func(string, Config) (Solver, error) { return nil, nil }) },
		func() { RegisterMeta("test-fake", func(string, Config) (Solver, error) { return nil, nil }) },
		func() { Register("test-meta", func(string, Config) (Solver, error) { return nil, nil }) },
		func() { Register("test-nil", nil) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	a := cnf.NewAssignment(3)
	a.Set(1, cnf.True)
	a.Set(3, cnf.False)
	in := Result{
		Status:     StatusSat,
		Assignment: a,
		Engine:     "mc",
		Wall:       1500 * time.Microsecond,
		Stats:      Stats{Samples: 42, Mean: 1.5, StdErr: 0.25},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"status":"SATISFIABLE"`, `"model":[1,-3]`, `"engine":"mc"`, `"samples":42`, `"z":6`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("marshaled result missing %s: %s", want, data)
		}
	}
	var out Result
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Status != in.Status || out.Engine != in.Engine || out.Wall != in.Wall || out.Stats != in.Stats {
		t.Errorf("round trip changed fields: %+v vs %+v", out, in)
	}
	if out.Assignment.Get(1) != cnf.True || out.Assignment.Get(2) != cnf.Unassigned || out.Assignment.Get(3) != cnf.False {
		t.Errorf("model round trip: %s", out.Assignment)
	}

	var bad Status
	if err := json.Unmarshal([]byte(`"MAYBE"`), &bad); err == nil {
		t.Error("unknown status string must not unmarshal silently")
	}
}

func TestProgressContextPlumbing(t *testing.T) {
	if ProgressFromContext(context.Background()) != nil {
		t.Fatal("background context must carry no progress hook")
	}
	var got Stats
	ctx := ContextWithProgress(context.Background(), func(s Stats) { got = s })
	fn := ProgressFromContext(ctx)
	if fn == nil {
		t.Fatal("hook lost in transit")
	}
	fn(Stats{Samples: 7})
	if got.Samples != 7 {
		t.Fatalf("hook not invoked with the snapshot: %+v", got)
	}
}

func TestNamedWrapperShortCircuitsExpiredContext(t *testing.T) {
	s, err := NewWith("test-fake", Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	r, err := s.Solve(ctx, cnf.FromClauses([]int{1}))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if r.Status != StatusUnknown {
		t.Errorf("Status = %v, want UNKNOWN", r.Status)
	}
}
