package solver

import (
	"context"
	"encoding/json"
	"math/big"
	"slices"
	"strings"
	"testing"

	"repro/internal/cnf"
)

func init() {
	// A fake engine that advertises counting support, for registry tests
	// that must not depend on the real count package (import cycle).
	Register("test-counter", func(_ string, cfg Config) (Solver, error) {
		return Func(func(ctx context.Context, f *cnf.Formula) (Result, error) {
			return Result{Status: StatusSat, Count: big.NewInt(7)}, nil
		}), nil
	}, TaskDecide, TaskCount)
}

func TestParseTask(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Task
	}{
		{"", TaskDecide},
		{"decide", TaskDecide},
		{"count", TaskCount},
		{"weighted-count", TaskWeightedCount},
		{"equivalent", TaskEquivalent},
	} {
		got, err := ParseTask(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseTask(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseTask("enumerate"); err == nil {
		t.Error("ParseTask accepted an unknown task name")
	}
}

func TestTaskCounting(t *testing.T) {
	if TaskDecide.Counting() || TaskEquivalent.Counting() {
		t.Error("decide/equivalent must not be counting tasks")
	}
	if !TaskCount.Counting() || !TaskWeightedCount.Counting() {
		t.Error("count/weighted-count must be counting tasks")
	}
}

// TestConfigKeyTaskSuffix pins the backward-compatibility contract for
// every cache tier keyed on Config.Key(): decide configs — explicit or
// zero-valued — produce exactly the pre-task key bytes, so existing
// verdict caches and durable stores replay unchanged; only non-decide
// tasks extend the key.
func TestConfigKeyTaskSuffix(t *testing.T) {
	base := Config{Seed: 3, MaxSamples: 100}
	decide := base
	decide.Task = TaskDecide
	if base.Key() != decide.Key() {
		t.Errorf("zero task key %q != explicit decide key %q", base.Key(), decide.Key())
	}
	if strings.Contains(base.Key(), "decide") {
		t.Errorf("decide key %q leaks the task name", base.Key())
	}
	counting := base
	counting.Task = TaskCount
	if counting.Key() == base.Key() {
		t.Error("count config must not share a key with decide")
	}
	if !strings.HasSuffix(counting.Key(), "|count") {
		t.Errorf("count key %q missing task suffix", counting.Key())
	}
}

func TestTasksOf(t *testing.T) {
	for _, tc := range []struct {
		expr string
		want []Task
	}{
		{"test-counter", []Task{TaskDecide, TaskCount}},
		// An engine registered with no tasks decides only.
		{"test-fake", []Task{TaskDecide}},
		// A meta wrapper intersects with its inner engine: test-meta
		// registered no tasks, so even a counting inner collapses to
		// decide.
		{"test-meta(test-counter)", []Task{TaskDecide}},
	} {
		_, _, got, err := lookup(tc.expr)
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("lookup(%q) tasks = %v, %v; want %v", tc.expr, got, err, tc.want)
		}
	}
	for _, expr := range []string{"no-such-engine-zzz", "test-meta(no-such-engine-zzz)", "test-meta"} {
		if _, _, _, err := lookup(expr); err == nil {
			t.Errorf("lookup accepted %q", expr)
		}
	}
}

func TestNewWithRejectsUnsupportedTask(t *testing.T) {
	_, err := NewWith("test-fake", Config{Task: TaskCount})
	if err == nil || !strings.Contains(err.Error(), "does not support task") {
		t.Errorf("decide-only engine accepted task=count: %v", err)
	}
	// Equivalence never reaches an engine directly — callers lower it to
	// a decide on the miter first — and the error should say so.
	_, err = NewWith("test-counter", Config{Task: TaskEquivalent})
	if err == nil || !strings.Contains(err.Error(), "miter") {
		t.Errorf("equivalent rejection should point at the miter lowering: %v", err)
	}
	if _, err := NewWith("test-counter", Config{Task: TaskCount}); err != nil {
		t.Errorf("counting engine rejected its own task: %v", err)
	}
}

func TestCountResult(t *testing.T) {
	r, err := CountResult(big.NewInt(5), nil, Stats{Decisions: 2})
	if err != nil || r.Status != StatusSat || r.Count.Int64() != 5 || r.Stats.Decisions != 2 {
		t.Errorf("CountResult(5) = %+v, %v", r, err)
	}
	r, err = CountResult(new(big.Int), nil, Stats{})
	if err != nil || r.Status != StatusUnsat || r.Count.Sign() != 0 {
		t.Errorf("CountResult(0) = %+v, %v", r, err)
	}
	if _, err := CountResult(nil, nil, Stats{}); err == nil {
		t.Error("CountResult(nil) must error: a counting engine produced no count")
	}
}

func TestResultCountJSONRoundTrip(t *testing.T) {
	// Counts can exceed int64/float64 range; the wire format is a
	// decimal string and must survive exactly.
	huge, ok := new(big.Int).SetString("340282366920938463463374607431768211456", 10) // 2^128
	if !ok {
		t.Fatal("SetString")
	}
	in := Result{Status: StatusSat, Engine: "count", Count: huge}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"count":"340282366920938463463374607431768211456"`) {
		t.Errorf("count not serialized as a decimal string: %s", data)
	}
	var out Result
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Count == nil || out.Count.Cmp(huge) != 0 {
		t.Errorf("round trip lost the count: %v", out.Count)
	}

	// Decide results must serialize without any count field at all, so
	// pre-task clients and stored records are byte-compatible.
	data, err = json.Marshal(Result{Status: StatusUnsat, Engine: "cdcl"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "count") {
		t.Errorf("decide result leaks a count field: %s", data)
	}
}
