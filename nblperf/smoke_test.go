package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&def); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return def
}

func TestBenchmarkJSONDescribesThisProgram(t *testing.T) {
	def := loadBenchmark(t)
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(def.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if def.Workloads[i].Name != w.name || def.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, def.Workloads[i].Name, def.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, at most 200 fit", w.name, len(w.why))
		}
	}
	var setupBound, maxBound float64
	for _, m := range def.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
			continue
		}
		maxBound = max(maxBound, *m.Bound)
		if m.Name == "setup_s" {
			setupBound = *m.Bound
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must carry the largest bound (%v), has %v", maxBound, setupBound)
	}
	for _, m := range def.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer metric %s carries a bound", m.Name)
		}
	}
}

// TestTracedPassObservesPastTheTraceRing sends more jobs through the
// fleet than its trace rings hold, and checks every answered job's
// trace is still there when its segment is observed.
func TestTracedPassObservesPastTheTraceRing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fleet")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	s, err := fleetHot.open(ctx, t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	tl := newTally()
	const jobs = 2*traceSegment + 20 // beyond the 256 traces a ring keeps
	p, unobserved := tracedPass(ctx, s, fleetHot.inputs(1, 0), fleetHot.clients, jobs, 0, tl)
	if p.attempted() != jobs || len(p.ms) != jobs || unobserved != 0 {
		t.Errorf("%d attempted, %d answered, %d unobserved; want %d, %d, 0", p.attempted(), len(p.ms), unobserved, jobs, jobs)
	}
	if tl.sum("trace.attributed_us") <= 0 || tl.mean("service.cache_hit") <= 0 {
		t.Errorf("no span was recorded: attributed %v µs, cache hit ratio %v",
			tl.sum("trace.attributed_us"), tl.mean("service.cache_hit"))
	}
}

// TestSmokeEveryWorkload runs every workload at three jobs per pass,
// plain and traced, and checks the program prints exactly the metrics
// BENCHMARK.json declares, with the declared units.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	def := loadBenchmark(t)
	for _, w := range workloads {
		for trace, declared := range [][]declaredMetric{def.EndToEnd, def.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.name, trace), func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
				defer cancel()
				var out bytes.Buffer
				res, err := run(ctx, options{
					workload: w.name, seed: 1, seconds: 60, trace: trace,
					jobs: 3, setups: 1, dir: t.TempDir(),
				}, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted != 3 {
					t.Errorf("correct %v, %d failed of %d attempted", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(declared))
				}
				for _, m := range declared {
					if !strings.Contains(out.String(), "metric "+m.Name+" ") {
						t.Errorf("no metric line for %s", m.Name)
					}
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("%s: reported %+v, declared unit %q", m.Name, got, m.Unit)
					}
				}
			})
		}
	}
}
