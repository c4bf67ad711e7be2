package service

import (
	"bytes"
	"io"
	"log"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cnf"
	"repro/internal/obs"
	"repro/internal/solver"
)

// hardFormula is an 8-variable 3-CNF (random, UNSAT-looking) that the
// preprocessing pipeline cannot conclude on: BVE eliminates nothing,
// so one component reaches the wrapped engine and — at a small sample
// budget, with n·m far past the Section III-F SNR wall — the
// Monte-Carlo check lands on UNKNOWN after several convergence rounds.
// That makes it the one instance that exercises every span the service
// records: queue, cache, pool, pipeline stages, and an engine check
// carrying a real SNR trajectory.
func hardFormula() *cnf.Formula {
	return cnf.FromClauses(
		[]int{3, 5, 1}, []int{7, 8, -2}, []int{-7, 5, -1}, []int{2, -3, 1},
		[]int{-7, -6, -2}, []int{8, 4, 5}, []int{8, -3, -1}, []int{-2, -8, 6},
		[]int{-6, -8, -7}, []int{-4, -3, -7}, []int{7, -5, 1}, []int{-3, -8, -5},
		[]int{-2, -4, -6}, []int{-7, 3, 4}, []int{7, 6, 2}, []int{4, -5, -7},
		[]int{-6, -4, -3}, []int{-7, 8, -6}, []int{4, 8, -1}, []int{7, 4, -3},
		[]int{6, 4, 5}, []int{-3, -7, -1}, []int{5, -1, 6}, []int{5, -2, 3},
		[]int{2, -8, -7}, []int{5, 4, 6}, []int{-7, 3, 4}, []int{-4, 5, 8},
		[]int{-3, 1, -6}, []int{-7, -5, -2},
	)
}

// TestTraceTreeForSolvedJob drives a real solve through the full
// service path and asserts the trace lands in the ring as one tree
// under the job's root, with the queue, cache, pool, pipeline-stage,
// and engine-check spans the issue's diagnosis story depends on — and
// that the UNKNOWN mc verdict's check span carries a non-empty SNR
// trajectory (the "why is this UNKNOWN" evidence).
func TestTraceTreeForSolvedJob(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, DefaultEngine: "pre(mc)"})
	j, err := s.Submit(hardFormula(), api.Request{
		Solver: solver.Config{MaxSamples: 50_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitDone(t, j)
	if snap.Err != nil || snap.Result.Status != solver.StatusUnknown {
		t.Fatalf("want an UNKNOWN verdict to diagnose, got %+v", snap)
	}

	tr := s.Trace(j.ID)
	if tr == nil {
		t.Fatalf("no trace recorded for job %s", j.ID)
	}
	if tr.Job != j.ID {
		t.Errorf("trace tagged with job %q, want %q", tr.Job, j.ID)
	}
	if len(tr.TraceID) == 0 {
		t.Error("trace has no trace ID")
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "job" {
		t.Fatalf("want a single job root span, got %+v", tr.Spans)
	}
	for _, name := range []string{
		"queue.wait", "cache.lru", "pool.acquire", "solve",
		"pipeline.simplify", "pipeline.decompose", "pipeline.component",
		"mc.check",
	} {
		if tr.Find(name) == nil {
			t.Errorf("trace is missing the %q span", name)
		}
	}

	check := tr.Find("mc.check")
	if check == nil {
		t.Fatal("no engine check span")
	}
	if len(check.Traj) == 0 {
		t.Fatal("UNKNOWN check span carries no SNR trajectory")
	}
	last := check.Traj[len(check.Traj)-1]
	if last.Samples == 0 {
		t.Errorf("trajectory tail has no sample count: %+v", last)
	}
	for i := 1; i < len(check.Traj); i++ {
		if check.Traj[i].Samples < check.Traj[i-1].Samples {
			t.Fatalf("trajectory sample counts regressed: %+v", check.Traj)
		}
	}
	attrs := map[string]string{}
	for _, a := range check.Attrs {
		attrs[a.Key] = a.Val
	}
	if attrs["status"] != "UNKNOWN" {
		t.Errorf("check span status attr = %q, want UNKNOWN", attrs["status"])
	}

	// The rendered tree is the -trace-slow / nblsat -trace surface; it
	// must include the trajectory line.
	var b strings.Builder
	obs.WriteTree(&b, tr)
	if !strings.Contains(b.String(), "snr[") {
		t.Errorf("rendered tree has no SNR trajectory line:\n%s", b.String())
	}
}

// TestTraceCacheHitAndRecentList: a cache-hit job still records a
// trace (job root + cache.lru hit, no solve), the hit is tagged, and
// /debug/traces' backing store lists both traces newest-first.
func TestTraceCacheHit(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, DefaultEngine: "svc-echo"})
	j1, err := s.Submit(testFormula(), api.Request{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	j2, err := s.Submit(testFormula(), api.Request{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)

	tr := s.Trace(j2.ID)
	if tr == nil {
		t.Fatalf("no trace for cache-hit job %s", j2.ID)
	}
	lru := tr.Find("cache.lru")
	if lru == nil {
		t.Fatal("cache-hit trace has no cache.lru span")
	}
	hit := ""
	for _, a := range lru.Attrs {
		if a.Key == "hit" {
			hit = a.Val
		}
	}
	if hit != "true" {
		t.Errorf("cache.lru hit attr = %q, want true", hit)
	}
	if tr.Find("solve") != nil {
		t.Error("cache-hit trace records a solve span")
	}

	recent := s.RecentTraces(10)
	if len(recent) < 2 {
		t.Fatalf("RecentTraces returned %d traces, want >= 2", len(recent))
	}
	if recent[0].Job != j2.ID {
		t.Errorf("newest trace is %q, want %q", recent[0].Job, j2.ID)
	}
}

// TestTraceSharesSubmittedTraceID: a submission carrying a trace ID
// (the router's X-NBL-Trace stamp) must adopt it, so the fleet hop
// yields one trace ID across both processes.
func TestTraceSharesSubmittedTraceID(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, DefaultEngine: "svc-echo"})
	j, err := s.Submit(testFormula(), api.Request{TraceID: "feedface01020304"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	tr := s.Trace(j.ID)
	if tr == nil {
		t.Fatal("no trace recorded")
	}
	if tr.TraceID != "feedface01020304" {
		t.Errorf("trace ID %q, want the submitted feedface01020304", tr.TraceID)
	}
}

// TestTraceSlowLogsSpanTree: with -trace-slow at 1ns every solved job is
// slow, so its span tree is logged under a "slow job <id>" line; at 0
// nothing is.
func TestTraceSlowLogsSpanTree(t *testing.T) {
	var buf bytes.Buffer
	defer func(w io.Writer) { log.SetOutput(w) }(log.Writer())
	log.SetOutput(&buf)
	for _, slow := range []time.Duration{0, time.Nanosecond} {
		buf.Reset()
		s := newTestServer(t, Config{Workers: 1, DefaultEngine: "svc-echo", TraceSlow: slow})
		j, err := s.Submit(testFormula(), api.Request{})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j) // the line is logged before done closes
		logged := buf.String()
		if slow == 0 {
			if strings.Contains(logged, "slow job") {
				t.Errorf("-trace-slow 0 logged %q", logged)
			}
			continue
		}
		_, tree, found := strings.Cut(logged, "slow job "+j.ID+" ")
		if !found {
			t.Fatalf("-trace-slow 1ns logged no slow line for %s: %q", j.ID, logged)
		}
		for _, span := range []string{"queue.wait", "pool.acquire", "solve"} {
			if !strings.Contains(tree, "  "+span+" ") {
				t.Errorf("slow-job tree lacks %s:\n%s", span, tree)
			}
		}
	}
}
