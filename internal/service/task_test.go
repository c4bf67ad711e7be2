package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/cnf"
	"repro/internal/solver"
)

// postRaw posts a body to a path and returns the status plus raw body —
// for asserting on error text rather than job JSON.
func postRaw(t *testing.T, ts *httptest.Server, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(data)
}

func TestCountingBoundRejects(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxCountVars: 4})
	f := cnf.FromClauses([]int{1, 2, 3, 4, 5})
	_, err := s.Submit(f, api.Request{Engine: "count", Task: solver.TaskCount})
	if err == nil || !strings.Contains(err.Error(), "counting bound") {
		t.Errorf("over-bound count accepted: %v", err)
	}
	// The same instance is fine as a decide job — the bound only guards
	// the exponential enumeration.
	j, err := s.Submit(f, api.Request{Engine: "count"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	// A negative bound disables the check.
	s2 := newTestServer(t, Config{Workers: 1, MaxCountVars: -1})
	j2, err := s2.Submit(f, api.Request{Engine: "count", Task: solver.TaskCount})
	if err != nil {
		t.Fatalf("unbounded server rejected a 5-var count: %v", err)
	}
	waitDone(t, j2)
}

func TestCountingBoundRejectsOverHTTP(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 1, MaxCountVars: 3})
	code, body := postRaw(t, ts, "/solve?task=count&engine=count&sync=1",
		"p cnf 5 1\n1 2 3 4 5 0\n")
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body %q)", code, body)
	}
	// The error body names the bound so clients know what to shrink.
	if !strings.Contains(body, "3-variable counting bound") {
		t.Errorf("error body does not name the bound: %q", body)
	}
}

func TestSubmitRejectsEngineTaskMismatch(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	_, err := s.Submit(testFormula(), api.Request{Engine: "cdcl", Task: solver.TaskCount})
	if err == nil || !strings.Contains(err.Error(), "does not support task") {
		t.Errorf("decide-only engine accepted task=count: %v", err)
	}
}

func TestTaskCountOverHTTP(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 1})

	// No engine parameter: counting tasks default to pre(count), not
	// the decide default.
	code, job := postSolve(t, ts, "task=count&sync=1", paperSATDIMACS)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if job.Engine != "pre(count)" {
		t.Errorf("count default engine = %q, want pre(count)", job.Engine)
	}
	if job.Task != solver.TaskCount {
		t.Errorf("task = %q, want count", job.Task)
	}
	// S_SAT has exactly one model (both variables true).
	if job.Result == nil || job.Result.Count == nil || job.Result.Count.String() != "1" {
		t.Fatalf("count result = %+v", job.Result)
	}

	// The same bytes again: a cache hit that replays the count.
	_, job2 := postSolve(t, ts, "task=count&sync=1", paperSATDIMACS)
	if !job2.CacheHit || job2.Result == nil || job2.Result.Count == nil ||
		job2.Result.Count.String() != "1" {
		t.Errorf("count cache hit = %+v", job2)
	}

	// A decide submission of the same formula must not surface the
	// count entry — task is part of the cache identity.
	_, job3 := postSolve(t, ts, "engine=pre(count)&sync=1", paperSATDIMACS)
	if job3.CacheHit {
		t.Error("decide submission hit the count cache entry")
	}

	_, metrics := getMetrics(t, ts)
	for _, want := range []string{
		`nblserve_task_jobs_total{task="count",state="done"} 2`,
		`nblserve_task_jobs_total{task="decide",state="done"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestTaskEquivalentOverHTTP(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 1})

	// S_SAT vs itself: the miter is UNSAT, so the pair is equivalent.
	code, job := postSolve(t, ts, "task=equivalent&engine=cdcl&sync=1",
		paperSATDIMACS+paperSATDIMACS)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if job.Task != solver.TaskEquivalent {
		t.Errorf("task = %q, want equivalent", job.Task)
	}
	if job.Equivalent == nil || !*job.Equivalent {
		t.Errorf("S_SAT vs itself: equivalent = %v, want true", job.Equivalent)
	}
	if job.Result == nil || job.Result.Status != solver.StatusUnsat {
		t.Errorf("miter verdict = %+v, want UNSAT", job.Result)
	}

	// S_SAT vs S_UNSAT disagree on (true, true).
	_, job2 := postSolve(t, ts, "task=equivalent&engine=cdcl&sync=1",
		paperSATDIMACS+paperUNSATDIMACS)
	if job2.Equivalent == nil || *job2.Equivalent {
		t.Errorf("S_SAT vs S_UNSAT: equivalent = %v, want false", job2.Equivalent)
	}

	// A single instance is not a pair.
	code, body := postRaw(t, ts, "/solve?task=equivalent&engine=cdcl&sync=1", paperSATDIMACS)
	if code != http.StatusBadRequest || !strings.Contains(body, "exactly 2") {
		t.Errorf("single-instance pair = %d %q", code, body)
	}

	// And batch submission is rejected outright.
	code, body = postRaw(t, ts, "/solve/batch?task=equivalent&engine=cdcl",
		paperSATDIMACS+paperUNSATDIMACS)
	if code != http.StatusBadRequest || !strings.Contains(body, "not supported on /solve/batch") {
		t.Errorf("batch equivalent = %d %q", code, body)
	}

	_, metrics := getMetrics(t, ts)
	if !strings.Contains(metrics, `nblserve_task_jobs_total{task="equivalent",state="done"} 2`) {
		t.Errorf("metrics missing equivalent task counts:\n%s", metrics)
	}
}

// TestCountCacheHitAcrossRenaming: the canonical fingerprint makes the
// count cache renaming-stable, exactly like the decide tier — and the
// replayed count is the same big integer.
func TestCountCacheHitAcrossRenaming(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})

	// Renamed via 1->3, 2->1, 3->2 with clause order preserved; both
	// have exactly 4 models.
	f := cnf.FromClauses([]int{1, -2}, []int{3, -2}, []int{1, 3})
	renamed := cnf.FromClauses([]int{3, -1}, []int{2, -1}, []int{3, 2})

	j1, err := s.Submit(f, api.Request{Engine: "count", Task: solver.TaskCount})
	if err != nil {
		t.Fatal(err)
	}
	snap1 := waitDone(t, j1)
	if snap1.Result.Count == nil || snap1.Result.Count.String() != "4" {
		t.Fatalf("count(f) = %v, want 4", snap1.Result.Count)
	}
	j2, err := s.Submit(renamed, api.Request{Engine: "count", Task: solver.TaskCount})
	if err != nil {
		t.Fatal(err)
	}
	snap2 := waitDone(t, j2)
	if !snap2.CacheHit {
		t.Error("renamed twin missed the count cache")
	}
	if snap2.Result.Count == nil || snap2.Result.Count.Cmp(snap1.Result.Count) != 0 {
		t.Errorf("replayed count = %v, want %v", snap2.Result.Count, snap1.Result.Count)
	}
}

// TestCountsReplayOnlyUnderTheirOwnIdentity: the canonical fingerprint
// drops the declared variable count, duplicate literals and duplicate
// clauses. A count doubles with each declared variable that occurs in
// no clause, and K′ counts every duplicate, so a count must replay only
// for the same declared count and a weighted count never. Run on the
// LRU alone and on the store alone.
func TestCountsReplayOnlyUnderTheirOwnIdentity(t *testing.T) {
	for name, cfg := range map[string]func() Config{
		"lru": func() Config { return Config{Workers: 1} },
		"store": func() Config {
			return Config{Workers: 1, CacheEntries: -1, Store: openStore(t, filepath.Join(t.TempDir(), "v.nbl"))}
		},
	} {
		s := newTestServer(t, cfg())
		for _, step := range []struct {
			task solver.Task
			f    *cnf.Formula
			want string
			hit  bool
		}{
			{solver.TaskCount, &cnf.Formula{NumVars: 1, Clauses: []cnf.Clause{{cnf.Pos(1)}}}, "1", false},
			{solver.TaskCount, &cnf.Formula{NumVars: 2, Clauses: []cnf.Clause{{cnf.Pos(1)}}}, "2", false},
			{solver.TaskCount, &cnf.Formula{NumVars: 2, Clauses: []cnf.Clause{{cnf.Pos(2)}}}, "2", true},
			{solver.TaskWeightedCount, cnf.FromClauses([]int{1}), "1", false},
			{solver.TaskWeightedCount, cnf.FromClauses([]int{1, 1}), "2", false},
			{solver.TaskWeightedCount, cnf.FromClauses([]int{1}), "1", false},
		} {
			j, err := s.Submit(step.f, api.Request{Task: step.task})
			if err != nil {
				t.Fatal(err)
			}
			snap := waitDone(t, j)
			if snap.Result.Count == nil || snap.Result.Count.String() != step.want || snap.CacheHit != step.hit {
				t.Errorf("%s: %s of %v answered %v (cache hit %v), want %s (cache hit %v)",
					name, step.task, step.f, snap.Result.Count, snap.CacheHit, step.want, step.hit)
			}
		}
	}
}
