package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dimacs"
	"repro/internal/rng"
	"repro/internal/solver"

	// Link the full engine registry in: the HTTP tests drive real
	// engines (pre(mc), cdcl) end to end.
	_ "repro"
)

// paperSATDIMACS is S_SAT from Section IV in SATLIB trailer dialect —
// the same bytes CI posts in the smoke job.
const paperSATDIMACS = `c paper S_SAT
p cnf 2 4
1 2 0
1 -2 0
-1 2 0
1 2 0
%
0
`

const paperUNSATDIMACS = `c paper S_UNSAT
p cnf 2 4
1 2 0
1 -2 0
-1 2 0
-1 -2 0
`

func newHTTPServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postSolve(t *testing.T, ts *httptest.Server, query, body string) (int, jobJSON) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/solve?"+query, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out jobJSON
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode < 400 {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("bad job JSON (%d): %v\n%s", resp.StatusCode, err, data)
		}
	}
	return resp.StatusCode, out
}

func TestHTTPSyncSolveSATAndUNSAT(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 2})
	code, job := postSolve(t, ts, "engine=pre(mc)&sync=1&samples=400000", paperSATDIMACS)
	if code != http.StatusOK {
		t.Fatalf("sync solve: HTTP %d", code)
	}
	if job.State != StateDone || job.Result == nil || job.Result.Status != solver.StatusSat {
		t.Fatalf("paper SAT via pre(mc): %+v", job)
	}

	code, job = postSolve(t, ts, "engine=pre(mc)&sync=1&samples=400000", paperUNSATDIMACS)
	if code != http.StatusOK || job.Result == nil || job.Result.Status != solver.StatusUnsat {
		t.Fatalf("paper UNSAT via pre(mc): HTTP %d %+v", code, job)
	}
}

func TestHTTPAsyncLifecycleWithLongPoll(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 1})
	code, job := postSolve(t, ts, "engine=cdcl&model=1", paperSATDIMACS)
	if code != http.StatusAccepted || job.ID == "" {
		t.Fatalf("async submit: HTTP %d %+v", code, job)
	}

	// Long-poll until terminal.
	resp, err := http.Get(ts.URL + "/jobs/" + job.ID + "?wait=10s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got jobJSON
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || got.Result == nil || got.Result.Status != solver.StatusSat {
		t.Fatalf("long-polled job: %+v", got)
	}
	if got.Result.Assignment == nil {
		t.Fatal("model=1 solve should carry a model")
	}

	// The job listing contains it.
	resp2, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var list []jobJSON
	if err := json.NewDecoder(resp2.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != job.ID {
		t.Fatalf("job listing: %+v", list)
	}
}

func TestHTTPCancelRunningJob(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 1, CacheEntries: -1, DefaultEngine: "svc-gate"})
	seed := uint64(3000)
	g := newGate(seed)
	code, job := postSolve(t, ts, fmt.Sprintf("seed=%d", seed), paperSATDIMACS)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	<-g.started

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got jobJSON
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}

	// The cancel is asynchronous from the engine's point of view; poll
	// until terminal.
	deadline := time.Now().Add(5 * time.Second)
	for got.State != StateCancelled {
		if time.Now().After(deadline) {
			t.Fatalf("job never cancelled: %+v", got)
		}
		r2, err := http.Get(ts.URL + "/jobs/" + job.ID + "?wait=1s")
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(r2.Body).Decode(&got)
		r2.Body.Close()
	}
}

func TestHTTPEventsStreamProgressAndDone(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 1, CacheEntries: -1, DefaultEngine: "svc-gate"})
	seed := uint64(3100)
	g := newGate(seed)
	_, job := postSolve(t, ts, fmt.Sprintf("seed=%d", seed), paperSATDIMACS)
	<-g.started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/jobs/"+job.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	var events []string
	released := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			events = append(events, strings.TrimPrefix(line, "event: "))
			if !released {
				close(g.release)
				released = true
			}
		}
		if len(events) > 0 && events[len(events)-1] == "done" {
			break
		}
	}
	if len(events) == 0 || events[0] != "progress" {
		t.Fatalf("expected a leading progress event, got %v", events)
	}
	if events[len(events)-1] != "done" {
		t.Fatalf("expected terminal done event, got %v", events)
	}
}

// TestHTTPJobBodyIsItsDoneEvent: a finished job's GET body and the
// data of its SSE done event are one encoding, byte for byte apart
// from the newline that ends the body.
func TestHTTPJobBodyIsItsDoneEvent(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 1})
	_, job := postSolve(t, ts, "engine=cdcl&model=1", paperSATDIMACS)
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	body := get("/jobs/" + job.ID + "?wait=10s")
	var done []byte
	sc := bufio.NewScanner(strings.NewReader(string(get("/jobs/" + job.ID + "/events"))))
	for event := ""; sc.Scan(); {
		line := sc.Text()
		if e, ok := strings.CutPrefix(line, "event: "); ok {
			event = e
		} else if d, ok := strings.CutPrefix(line, "data: "); ok && event == "done" {
			done = []byte(d)
		}
	}
	if done == nil {
		t.Fatal("no done event")
	}
	if want := string(done) + "\n"; string(body) != want {
		t.Errorf("GET body\n%s\ndone event data\n%s", body, want)
	}
}

func TestHTTPMetricsAndHealthz(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 1})
	// One real solve and one cache hit so every counter family is live.
	postSolve(t, ts, "engine=pre(mc)&sync=1&samples=400000", paperSATDIMACS)
	postSolve(t, ts, "engine=pre(mc)&sync=1&samples=400000", paperSATDIMACS)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		`nblserve_jobs_total{state="done"} 2`,
		"nblserve_cache_hits_total 1",
		"nblserve_cache_misses_total 1",
		"nblserve_cache_entries 1",
		"nblserve_jobs_running 0",
		"nblserve_samples_total",
		"nblserve_samples_per_second",
		`nblserve_solve_duration_seconds_bucket{engine="pre(mc)",le="+Inf"} 1`,
		`nblserve_solve_duration_seconds_count{engine="pre(mc)"} 1`,
		// Engine lease pool counters (values are process-global — the
		// Default pool is shared across tests — so presence only).
		"nblserve_pool_warm_hits_total",
		"nblserve_pool_cold_misses_total",
		"nblserve_pool_evictions_total",
		"nblserve_pool_capacity",
		"nblserve_pool_size",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}

	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var hz map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz["status"] != "ok" {
		t.Fatalf("healthz: %v", hz)
	}
	// The kernel tier is a fact about the process, reported once here
	// rather than in any result.
	if hz["accel"] != rng.FillAccelName() {
		t.Errorf("healthz accel = %v, want %q", hz["accel"], rng.FillAccelName())
	}
}

func TestHTTPRejections(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 1})
	if code, _ := postSolve(t, ts, "engine=no-such-engine", paperSATDIMACS); code != http.StatusBadRequest {
		t.Errorf("unknown engine: HTTP %d", code)
	}
	if code, _ := postSolve(t, ts, "engine=mc", "this is not dimacs"); code != http.StatusBadRequest {
		t.Errorf("bad body: HTTP %d", code)
	}
	if code, _ := postSolve(t, ts, "engine=mc&timeout=banana", paperSATDIMACS); code != http.StatusBadRequest {
		t.Errorf("bad timeout: HTTP %d", code)
	}
	if code, _ := postSolve(t, ts, "engine=mc&samples=many", paperSATDIMACS); code != http.StatusBadRequest {
		t.Errorf("bad samples: HTTP %d", code)
	}
	// Negative numeric knobs are rejected, not passed to the engines (a
	// negative worker count would panic the sampler's slice make).
	for _, q := range []string{"engine=mc&workers=-1", "engine=mc&samples=-1", "engine=mc&theta=-2"} {
		if code, _ := postSolve(t, ts, q, paperSATDIMACS); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", q, code)
		}
	}
	if code, _ := postSolve(t, ts, "engine=mc&workers=100000", paperSATDIMACS); code != http.StatusBadRequest {
		t.Errorf("huge workers: HTTP %d, want 400", code)
	}
	// An unknown portfolio member is refused at submit, sync or async,
	// not answered by a job that fails on a worker.
	for _, engine := range []string{"portfolio", "pre(portfolio)"} {
		for _, sync := range []string{"&sync=1", ""} {
			q := "engine=" + engine + "&members=nosuch" + sync
			if code, _ := postSolve(t, ts, q, paperSATDIMACS); code != http.StatusBadRequest {
				t.Errorf("%s: HTTP %d, want 400", q, code)
			}
		}
		q := "engine=" + engine + "&members=cdcl,walksat&sync=1"
		if code, job := postSolve(t, ts, q, paperSATDIMACS); code != http.StatusOK ||
			job.Result == nil || job.Result.Status != solver.StatusSat {
			t.Errorf("%s: HTTP %d, %+v, want a SAT answer", q, code, job)
		}
	}
	// A knob an engine's factory rules out is refused at submit, sync or
	// async, by name: never a job that fails on a worker.
	for _, tc := range []struct{ query, knob string }{
		{"engine=mc&family=nosuch", "family"},
		{"engine=pre(mc)&family=nosuch", "family"},
		{"engine=sbl&alloc=nosuch", "alloc"},
		{"engine=rtw&model=1", "model"},
		{"engine=sbl&model=1", "model"},
		{"engine=analog&model=1", "model"},
		{"engine=count&model=1", "model"},
		{"engine=wcount&model=1", "model"},
		{"engine=pre(rtw)&model=1", "model"},
	} {
		for _, sync := range []string{"&sync=1", ""} {
			q := tc.query + sync
			resp, err := http.Post(ts.URL+"/solve?"+q, "text/plain", strings.NewReader(paperSATDIMACS))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), tc.knob) {
				t.Errorf("%s: HTTP %d %s, want a 400 naming %s", q, resp.StatusCode, msg, tc.knob)
			}
		}
	}
	// A lineup answers as it did: a member that refuses the Config is a
	// failed member, and the rest still race.
	sat, err := dimacs.Parse([]byte(paperSATDIMACS))
	if err != nil {
		t.Fatal(err)
	}
	q := "engine=portfolio&members=cdcl,rtw&model=1&sync=1"
	if code, job := postSolve(t, ts, q, paperSATDIMACS); code != http.StatusOK || job.Result == nil ||
		job.Result.Status != solver.StatusSat || !job.Result.Assignment.Satisfies(sat) {
		t.Errorf("%s: HTTP %d, %+v, want SAT with a model", q, code, job)
	}
	// So does the default engine, pre(portfolio), whose mc member refuses
	// the family: rand8-hard keeps one component past preprocessing, so
	// the lineup races, and cdcl decides it.
	hard, err := os.ReadFile("../../testdata/rand8-hard.cnf")
	if err != nil {
		t.Fatal(err)
	}
	if code, job := postSolve(t, ts, "family=nosuch&sync=1", string(hard)); code != http.StatusOK ||
		job.Result == nil || job.Result.Status != solver.StatusSat || job.Result.Stats.Components != 1 {
		t.Errorf("default engine, family=nosuch: HTTP %d, %+v, want SAT from one raced component", code, job)
	}
	resp, err := http.Get(ts.URL + "/jobs/j999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job: HTTP %d", resp.StatusCode)
	}
}

// TestHTTPTracesSizesFromTheRing: GET /debug/traces?n= sizes its
// answer from the traces the 256-trace ring returns, never from the
// client's n, so a huge n costs what a small one does. Sized from n,
// one 64-byte row per requested trace, n=1048576 allocated 64 MiB, and
// an n near 2^31 asks for 128 GiB.
func TestHTTPTracesSizesFromTheRing(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 1})
	if code, _ := postSolve(t, ts, "engine=cdcl&sync=1", paperSATDIMACS); code != http.StatusOK {
		t.Fatalf("solve: HTTP %d", code)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, err := http.Get(ts.URL + "/debug/traces?n=1048576")
	if err != nil {
		t.Fatal(err)
	}
	var rows []traceSummaryJSON
	err = json.NewDecoder(resp.Body).Decode(&rows)
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusOK || err != nil || len(rows) != 1 {
		t.Fatalf("HTTP %d, %d rows, %v; want 200 and the one trace", resp.StatusCode, len(rows), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("n=1048576 allocated %d bytes, want under 1 MiB", grew)
	}
}

// batchItemJSON decodes one /solve/batch entry with its job snapshot.
type batchItemJSON struct {
	Index int      `json:"index"`
	Job   *jobJSON `json:"job,omitempty"`
	Error string   `json:"error,omitempty"`
	Code  int      `json:"code,omitempty"`
}

func postBatch(t *testing.T, ts *httptest.Server, query, body string) (int, []batchItemJSON) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/solve/batch?"+query, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var items []batchItemJSON
	if resp.StatusCode < 400 {
		if err := json.Unmarshal(data, &items); err != nil {
			t.Fatalf("batch response %s: %v", data, err)
		}
	}
	return resp.StatusCode, items
}

// TestHTTPSolveBatch posts one body carrying both paper instances (one
// in SATLIB trailer dialect, one plain) and follows every returned job
// to its verdict.
func TestHTTPSolveBatch(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 2})
	code, items := postBatch(t, ts, "engine=pre(mc)&samples=400000", paperSATDIMACS+paperUNSATDIMACS)
	if code != http.StatusAccepted {
		t.Fatalf("batch: HTTP %d", code)
	}
	if len(items) != 2 {
		t.Fatalf("batch: %d items, want 2", len(items))
	}
	want := []string{"SATISFIABLE", "UNSATISFIABLE"}
	for i, item := range items {
		if item.Index != i || item.Job == nil || item.Error != "" {
			t.Fatalf("item %d: %+v", i, item)
		}
		resp, err := http.Get(ts.URL + "/jobs/" + item.Job.ID + "?wait=10s")
		if err != nil {
			t.Fatal(err)
		}
		var jj jobJSON
		err = json.NewDecoder(resp.Body).Decode(&jj)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if jj.State != StateDone || jj.Result == nil || jj.Result.Status.String() != want[i] {
			t.Errorf("job %s: state %s result %+v, want %s", item.Job.ID, jj.State, jj.Result, want[i])
		}
	}
}

// TestHTTPSolveBatchPartialFailure pins the per-instance error
// semantics: a malformed instance fails alone with its own 400 while
// its batch mates proceed, and a batch with nothing admissible answers
// with the first failure's code.
func TestHTTPSolveBatchPartialFailure(t *testing.T) {
	_, ts := newHTTPServer(t, Config{Workers: 1})
	garbage := "p cnf 2 1\n1 banana 0\n"

	code, items := postBatch(t, ts, "engine=cdcl", paperSATDIMACS+garbage)
	if code != http.StatusAccepted {
		t.Fatalf("mixed batch: HTTP %d", code)
	}
	if len(items) != 2 {
		t.Fatalf("mixed batch: %d items, want 2", len(items))
	}
	if items[0].Job == nil {
		t.Errorf("good instance rejected: %+v", items[0])
	}
	if items[1].Job != nil || items[1].Code != http.StatusBadRequest {
		t.Errorf("bad instance: %+v, want its own 400", items[1])
	}

	if code, _ := postBatch(t, ts, "engine=cdcl", garbage); code != http.StatusBadRequest {
		t.Errorf("all-bad batch: HTTP %d, want 400", code)
	}
	if code, _ := postBatch(t, ts, "engine=cdcl", ""); code != http.StatusBadRequest {
		t.Errorf("empty batch: HTTP %d, want 400", code)
	}
	if code, _ := postBatch(t, ts, "engine=no-such-engine", paperSATDIMACS); code != http.StatusBadRequest {
		t.Errorf("bad engine: HTTP %d, want 400", code)
	}
}

// TestHTTPSolveBatchShuttingDown pins the per-instance 503: after
// intake stops every entry carries 503, and with nothing admitted the
// batch itself answers 503 — matching what a single /solve returns.
func TestHTTPSolveBatchShuttingDown(t *testing.T) {
	s, ts := newHTTPServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	code, _ := postBatch(t, ts, "engine=cdcl", paperSATDIMACS+paperUNSATDIMACS)
	if code != http.StatusServiceUnavailable {
		t.Errorf("batch after shutdown: HTTP %d, want 503", code)
	}
	// A malformed instance ahead of a refused one: nothing was admitted
	// and a retry may admit the second, so the batch still answers 503.
	code, _ = postBatch(t, ts, "engine=cdcl", "p cnf 2 1\n1 banana 0\n"+paperSATDIMACS)
	if code != http.StatusServiceUnavailable {
		t.Errorf("malformed + refused batch after shutdown: HTTP %d, want 503", code)
	}
}
