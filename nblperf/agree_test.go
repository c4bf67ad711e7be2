package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"same", steady, []float64{100, 99, 101}, false, "within"},
		{"slower by more than the bound", steady, []float64{115, 116, 114}, false, "worse"},
		{"faster", steady, []float64{80, 81, 79}, false, "within"},
		{"throughput dropped", steady, []float64{85, 86, 84}, true, "worse"},
		{"throughput rose", steady, []float64{120, 121}, true, "within"},
		{"noisy baseline", []float64{60, 100, 140, 80, 120}, []float64{112, 110}, false, "unresolved"},
		{"noisy baseline, every run better", []float64{60, 100, 140, 80, 120}, []float64{50, 55}, false, "within"},
		{"no runs", nil, steady, false, "missing"},
	} {
		if got := judge(tc.a, tc.b, tc.higher, 0.10); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func writeRecords(t *testing.T, dir string, values map[string][]float64) {
	t.Helper()
	for wl, vs := range values {
		for i, v := range vs {
			r := record{Workload: wl, Seed: uint64(i), result: result{
				Correct: true, Attempted: 1,
				Metrics: map[string]metric{"jobs_per_s": {v, "jobs/s"}},
			}}
			blob, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.json", wl, i)), blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestAgreeReadsBenchmarkAndRecords(t *testing.T) {
	root := t.TempDir()
	bench := filepath.Join(root, "BENCHMARK.json")
	def := `{"workloads": [{"name": "w1"}, {"name": "w2"}],
		"end_to_end": [{"name": "jobs_per_s", "unit": "jobs/s", "better": "higher", "bound": 0.1}]}`
	if err := os.WriteFile(bench, []byte(def), 0o644); err != nil {
		t.Fatal(err)
	}
	a, b := filepath.Join(root, "a"), filepath.Join(root, "b")
	for _, d := range []string{a, b} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	writeRecords(t, a, map[string][]float64{"w1": {10, 10.1, 9.9}, "w2": {5, 5, 5}})
	writeRecords(t, b, map[string][]float64{"w1": {10, 10.2}, "w2": {4, 4.1}})

	var out bytes.Buffer
	worse, err := agree(bench, a, b, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Error("w2 dropped 20% and agree did not report it")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 || !strings.HasSuffix(lines[1], "within") || !strings.HasSuffix(lines[2], "worse") {
		t.Errorf("unexpected report:\n%s", out.String())
	}
}
