package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// fakeBackend is a minimal stand-in for one nblserve replica: it
// accepts /solve (counting submissions and handing out sequential
// ids), answers /jobs/{id}, and serves canned metrics.
type fakeBackend struct {
	name       string
	ts         *httptest.Server
	solves     atomic.Int64
	nextID     atomic.Int64
	refuse     atomic.Bool // answer /solve with 503
	retryAfter string      // Retry-After on refusals ("" omits it)
	metrics    string
	lastBody   atomic.Value // []byte: most recent /solve body
	lastTrace  atomic.Value // string: most recent X-NBL-Trace header
}

func newFakeBackend(t *testing.T, name string) *fakeBackend {
	t.Helper()
	b := &fakeBackend{name: name}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /solve", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		b.lastBody.Store(body)
		b.lastTrace.Store(r.Header.Get("X-NBL-Trace"))
		if b.refuse.Load() {
			if b.retryAfter != "" {
				w.Header().Set("Retry-After", b.retryAfter)
			}
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, `{"error":"shutting down"}`)
			return
		}
		b.solves.Add(1)
		id := fmt.Sprintf("j%d", b.nextID.Add(1))
		w.Header().Set("X-NBL-Node", b.name)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%q,"engine":"cdcl","state":"queued"}`, id)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-NBL-Node", b.name)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"id":%q,"state":"done","result":{"status":"SAT"}}`, r.PathValue("id"))
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"id":%q,"state":"cancelled"}`, r.PathValue("id"))
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `[{"id":"j1","state":"done"}]`)
	})
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprintf(w, "event: done\ndata: {\"id\":%q,\"state\":\"done\"}\n\n", r.PathValue("id"))
	})
	mux.HandleFunc("GET /jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.PathValue("id"), "j") {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":"no such job"}`)
			return
		}
		// A replica's trace adopts the trace ID stamped at submission —
		// echo the captured header back the way nblserve would.
		tid, _ := b.lastTrace.Load().(string)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"trace_id":%q,"job":%q,"spans":[{"name":"job","start_us":0,"dur_us":42,`+
			`"children":[{"name":"solve","start_us":1,"dur_us":40}]}]}`,
			tid, r.PathValue("id"))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, b.metrics)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	b.ts = httptest.NewServer(mux)
	t.Cleanup(b.ts.Close)
	return b
}

func (b *fakeBackend) node() Node { return Node{Name: b.name, URL: b.ts.URL} }

// fakeClock is an injectable clock the cooldown tests advance by hand.
type fakeClock struct{ t atomic.Int64 }

func newFakeClock() *fakeClock {
	c := &fakeClock{}
	c.t.Store(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	return c
}
func (c *fakeClock) now() time.Time          { return time.Unix(0, c.t.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.t.Add(int64(d)) }

func newTestRouter(t *testing.T, clock *fakeClock, backends ...*fakeBackend) (*Router, *httptest.Server) {
	t.Helper()
	cfg := Config{}
	for _, b := range backends {
		cfg.Nodes = append(cfg.Nodes, b.node())
	}
	if clock != nil {
		cfg.Now = clock.now
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

const dimacsA = "p cnf 3 3\n1 2 0\n2 3 0\n3 0\n"

// dimacsARenamed is dimacsA under the renaming 1->3, 2->1, 3->2: a
// different byte string, the same canonical fingerprint.
const dimacsARenamed = "p cnf 3 3\n3 1 0\n1 2 0\n2 0\n"

// dimacsB shares dimacsA's geometry but not its fingerprint.
const dimacsB = "p cnf 3 3\n-1 -2 0\n-2 -3 0\n-3 0\n"

func postSolve(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/solve?engine=cdcl", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, m
}

// TestRoutingIsRenamingStable: the same formula under two variable
// renamings routes to the same replica — the whole point of hashing
// the canonical fingerprint rather than the bytes.
func TestRoutingIsRenamingStable(t *testing.T) {
	b0 := newFakeBackend(t, "n0")
	b1 := newFakeBackend(t, "n1")
	_, ts := newTestRouter(t, nil, b0, b1)

	resp1, job1 := postSolve(t, ts.URL, dimacsA)
	resp2, job2 := postSolve(t, ts.URL, dimacsARenamed)
	if resp1.StatusCode != http.StatusAccepted || resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("submits: %d, %d", resp1.StatusCode, resp2.StatusCode)
	}
	n1, n2 := resp1.Header.Get("X-NBL-Node"), resp2.Header.Get("X-NBL-Node")
	if n1 == "" || n1 != n2 {
		t.Fatalf("renamed twin routed to %q, original to %q — affinity broken", n2, n1)
	}
	if b0.solves.Load()+b1.solves.Load() != 2 {
		t.Fatalf("fleet saw %d+%d solves, want 2", b0.solves.Load(), b1.solves.Load())
	}
	// Ids are namespaced by the owning node.
	for _, job := range []map[string]any{job1, job2} {
		id, _ := job["id"].(string)
		if !strings.HasPrefix(id, n1+"-") {
			t.Fatalf("job id %q not namespaced under %q", id, n1)
		}
	}
}

// TestFailoverHonorsRetryAfter: a refusing primary is failed past,
// cooled for exactly the seconds its Retry-After names, and retried
// after the window.
func TestFailoverHonorsRetryAfter(t *testing.T) {
	b0 := newFakeBackend(t, "n0")
	b1 := newFakeBackend(t, "n1")
	clock := newFakeClock()
	rt, ts := newTestRouter(t, clock, b0, b1)

	// Find the primary for dimacsA, then make it refuse with a 7s
	// Retry-After.
	resp, _ := postSolve(t, ts.URL, dimacsA)
	primary, secondary := b0, b1
	if resp.Header.Get("X-NBL-Node") == "n1" {
		primary, secondary = b1, b0
	}
	primary.retryAfter = "7"
	primary.refuse.Store(true)
	primaryBefore := primary.solves.Load()

	resp2, _ := postSolve(t, ts.URL, dimacsA)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("failover submit: HTTP %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-NBL-Node"); got != secondary.name {
		t.Fatalf("failover landed on %q, want %q", got, secondary.name)
	}
	if rt.failovers.Load() != 1 {
		t.Fatalf("failovers = %d, want 1", rt.failovers.Load())
	}

	// While the cooldown runs, the primary recovers but is not even
	// tried: the job goes straight to the secondary.
	primary.refuse.Store(false)
	clock.advance(6 * time.Second)
	resp3, _ := postSolve(t, ts.URL, dimacsA)
	if got := resp3.Header.Get("X-NBL-Node"); got != secondary.name {
		t.Fatalf("cooling primary was used: routed to %q", got)
	}
	if primary.solves.Load() != primaryBefore {
		t.Fatal("cooling primary received a request")
	}

	// Past the window, affinity reasserts itself.
	clock.advance(2 * time.Second)
	resp4, _ := postSolve(t, ts.URL, dimacsA)
	if got := resp4.Header.Get("X-NBL-Node"); got != primary.name {
		t.Fatalf("post-cooldown routed to %q, want primary %q", got, primary.name)
	}
}

// TestDialFailureFailsOver: a dead node (nothing listening) is
// skipped, the job lands on a live one, and the submission succeeds.
func TestDialFailureFailsOver(t *testing.T) {
	live := newFakeBackend(t, "live")
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // port now refuses connections

	rt, err := New(Config{Nodes: []Node{
		{Name: "dead", URL: deadURL},
		{Name: "live", URL: live.ts.URL},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	// Whatever the ranking, every submission must succeed.
	for _, body := range []string{dimacsA, dimacsB} {
		resp, _ := postSolve(t, ts.URL, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit with a dead node: HTTP %d", resp.StatusCode)
		}
		if got := resp.Header.Get("X-NBL-Node"); got != "live" {
			t.Fatalf("routed to %q, want live", got)
		}
	}
}

// TestAllNodesRefuse503: when the whole fleet refuses, the router
// answers 503 with a Retry-After derived from the soonest cooldown.
func TestAllNodesRefuse503(t *testing.T) {
	b0 := newFakeBackend(t, "n0")
	b1 := newFakeBackend(t, "n1")
	b0.retryAfter, b1.retryAfter = "5", "9"
	b0.refuse.Store(true)
	b1.refuse.Store(true)
	_, ts := newTestRouter(t, newFakeClock(), b0, b1)

	resp, _ := postSolve(t, ts.URL, dimacsA)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-refusing fleet: HTTP %d, want 503", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra != "5" {
		t.Fatalf("Retry-After = %q, want 5 (soonest node)", ra)
	}
}

// TestBadDIMACSRejectedAtRouter: a body the router cannot
// canonicalize never reaches a backend.
func TestBadDIMACSRejectedAtRouter(t *testing.T) {
	b0 := newFakeBackend(t, "n0")
	_, ts := newTestRouter(t, nil, b0)
	resp, err := http.Post(ts.URL+"/solve", "text/plain", strings.NewReader("not dimacs"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: HTTP %d, want 400", resp.StatusCode)
	}
	if b0.solves.Load() != 0 {
		t.Fatal("garbage body reached a backend")
	}
}

// TestJobProxyResolvesNode: /jobs/{id} and DELETE find the owning
// node from the namespaced id alone.
func TestJobProxyResolvesNode(t *testing.T) {
	b0 := newFakeBackend(t, "n0")
	b1 := newFakeBackend(t, "n1")
	_, ts := newTestRouter(t, nil, b0, b1)

	resp, job := postSolve(t, ts.URL, dimacsA)
	id, _ := job["id"].(string)
	owner := resp.Header.Get("X-NBL-Node")

	get := func() map[string]any {
		t.Helper()
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs/%s: HTTP %d", id, resp.StatusCode)
		}
		if got := resp.Header.Get("X-NBL-Node"); got != owner {
			t.Fatalf("proxied to %q, want owner %q", got, owner)
		}
		var m map[string]any
		json.NewDecoder(resp.Body).Decode(&m)
		return m
	}

	if got := get(); got["id"] != id {
		t.Fatalf("snapshot id %v, want %q (renamespaced)", got["id"], id)
	}

	// Simulate a router restart: only the namespaced id itself
	// identifies the node.
	if got := get(); got["id"] != id {
		t.Fatalf("prefix-fallback snapshot id %v, want %q", got["id"], id)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: HTTP %d", dresp.StatusCode)
	}

	// Unknown ids are a router-level 404, no backend involved.
	uresp, err := http.Get(ts.URL + "/jobs/zz-j9")
	if err != nil {
		t.Fatal(err)
	}
	uresp.Body.Close()
	if uresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: HTTP %d, want 404", uresp.StatusCode)
	}
}

// TestJobProxyRelaysReplicaBytes: a job fetched through the router is
// the owning nblserve replica's body byte for byte once the id value is
// swapped back; only the id's value is rewritten in transit.
func TestJobProxyRelaysReplicaBytes(t *testing.T) {
	s := service.NewServer(service.Config{Workers: 1})
	replica := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		replica.Close()
		s.Shutdown(context.Background())
	})
	rt, err := New(Config{Nodes: []Node{{Name: "n0", URL: replica.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	get := func(url string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d, %v", url, resp.StatusCode, err)
		}
		return body
	}
	resp, err := http.Post(front.URL+"/solve?engine=cdcl&model=1&sync=1", "text/plain", strings.NewReader(dimacsA))
	if err != nil {
		t.Fatal(err)
	}
	var job struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil || !strings.HasPrefix(job.ID, "n0-") {
		t.Fatalf("solve answered id %q, %v", job.ID, err)
	}
	remote := strings.TrimPrefix(job.ID, "n0-")

	viaRouter := get(front.URL + "/jobs/" + job.ID)
	direct := get(replica.URL + "/jobs/" + remote)
	swapped := bytes.Replace(viaRouter, []byte(strconv.Quote(job.ID)), []byte(strconv.Quote(remote)), 1)
	if !bytes.Equal(swapped, direct) {
		t.Errorf("router relayed\n%s\nreplica answered\n%s", viaRouter, direct)
	}
}

// TestEventsProxyRelaysLongLines: a done event whose model pushes its
// data line past 1 MiB reaches the client whole, id renamespaced.
func TestEventsProxyRelaysLongLines(t *testing.T) {
	model := make([]string, 200_000)
	for i := range model {
		model[i] = strconv.Itoa(i + 1)
	}
	data := `{"id":"j1","state":"done","result":{"status":"SATISFIABLE","model":[` + strings.Join(model, ",") + `]}}`
	if len(data) <= 1<<20 {
		t.Fatalf("data line is %d bytes, want more than 1 MiB", len(data))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprintf(w, "event: done\ndata: %s\n\n", data)
	})
	replica := httptest.NewServer(mux)
	t.Cleanup(replica.Close)
	rt, err := New(Config{Nodes: []Node{{Name: "n0", URL: replica.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	resp, err := http.Get(front.URL + "/jobs/n0-j1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := "event: done\ndata: " + strings.Replace(data, `"j1"`, `"n0-j1"`, 1) + "\n\n"
	if string(body) != want {
		t.Fatalf("relayed %d bytes of the done event, want %d", len(body), len(want))
	}
}

// TestResolveLongestNodePrefix: a fresh router, holding no state about
// any job, resolves an id to the longest node name that prefixes it, so
// east-2's jobs do not go to east.
func TestResolveLongestNodePrefix(t *testing.T) {
	for _, nodes := range [][]Node{
		{{Name: "east", URL: "http://east"}, {Name: "east-2", URL: "http://east-2"}},
		{{Name: "east-2", URL: "http://east-2"}, {Name: "east", URL: "http://east"}},
	} {
		rt, err := New(Config{Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		for id, want := range map[string]string{"east-2-j7": "east-2/j7", "east-j7": "east/j7"} {
			if nd, remote, ok := rt.resolve(id); !ok || nd.Name+"/"+remote != want {
				t.Errorf("%v: resolve(%q) = %s/%s %t, want %s", nodes, id, nd.Name, remote, ok, want)
			}
		}
		for _, id := range []string{"west-j7", "east-", "east", "j7"} {
			if nd, _, ok := rt.resolve(id); ok {
				t.Errorf("%v: resolve(%q) = %s, want no node", nodes, id, nd.Name)
			}
		}
	}
}

// TestEventsProxyRenamespacesIDs: the SSE stream passes through with
// each event's id rewritten into the router's namespace.
func TestEventsProxyRenamespacesIDs(t *testing.T) {
	b0 := newFakeBackend(t, "n0")
	_, ts := newTestRouter(t, nil, b0)
	_, job := postSolve(t, ts.URL, dimacsA)
	id, _ := job["id"].(string)

	resp, err := http.Get(ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), fmt.Sprintf("%q", id)) {
		t.Fatalf("SSE stream does not carry the namespaced id %q:\n%s", id, body)
	}
	if strings.Contains(string(body), `"id":"j1"`) {
		t.Fatalf("SSE stream leaked the raw backend id:\n%s", body)
	}
}

// TestMetricsAggregation: /metrics carries the router's counters,
// per-node relabeled replica lines, and nblfleet sums grouped by the
// non-node labels.
func TestMetricsAggregation(t *testing.T) {
	b0 := newFakeBackend(t, "n0")
	b1 := newFakeBackend(t, "n1")
	b0.metrics = "# TYPE nblserve_jobs_total counter\n" +
		"nblserve_jobs_total{state=\"done\"} 3\n" +
		"nblserve_cache_hits_total 1\n" +
		"nblserve_node_info{node=\"n0\"} 1\n"
	b1.metrics = "nblserve_jobs_total{state=\"done\"} 4\n" +
		"nblserve_cache_hits_total 2\n"
	_, ts := newTestRouter(t, nil, b0, b1)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	body := string(data)

	for _, want := range []string{
		"nblrouter_nodes 2",
		"nblrouter_submits_total 0",
		`nblserve_jobs_total{node="n0",state="done"} 3`,
		`nblserve_jobs_total{node="n1",state="done"} 4`,
		`nblserve_cache_hits_total{node="n0"} 1`,
		`nblserve_node_info{node="n0"} 1`, // passes through unrelabeled
		`nblfleet_jobs_total{state="done"} 7`,
		"nblfleet_cache_hits_total 3",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("fleet metrics missing %q:\n%s", want, body)
		}
	}
}

// TestBatchRoutesPerInstance: one batch body fans out per instance,
// each entry carrying a namespaced job id from whichever node its
// fingerprint selected.
func TestBatchRoutesPerInstance(t *testing.T) {
	b0 := newFakeBackend(t, "n0")
	b1 := newFakeBackend(t, "n1")
	_, ts := newTestRouter(t, nil, b0, b1)

	resp, err := http.Post(ts.URL+"/solve/batch?engine=cdcl", "text/plain",
		strings.NewReader(dimacsA+dimacsB))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch: HTTP %d", resp.StatusCode)
	}
	var items []struct {
		Index int             `json:"index"`
		Job   json.RawMessage `json:"job"`
		Error string          `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&items); err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("batch answered %d items, want 2", len(items))
	}
	for _, it := range items {
		if it.Error != "" {
			t.Fatalf("instance %d failed: %s", it.Index, it.Error)
		}
		var job struct {
			ID string `json:"id"`
		}
		json.Unmarshal(it.Job, &job)
		if !strings.HasPrefix(job.ID, "n0-") && !strings.HasPrefix(job.ID, "n1-") {
			t.Fatalf("instance %d id %q not namespaced", it.Index, job.ID)
		}
	}
	if b0.solves.Load()+b1.solves.Load() != 2 {
		t.Fatalf("fleet saw %d+%d solves, want 2", b0.solves.Load(), b1.solves.Load())
	}
}

// TestHealthzAggregates: the fleet is ok while one node lives, down
// (503) when none do.
func TestHealthzAggregates(t *testing.T) {
	b0 := newFakeBackend(t, "n0")
	_, ts := newTestRouter(t, nil, b0)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy fleet: HTTP %d", resp.StatusCode)
	}

	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	rt, err := New(Config{Nodes: []Node{{Name: "dead", URL: deadURL}}})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(rt.Handler())
	defer ts2.Close()
	resp2, err := http.Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead fleet: HTTP %d, want 503", resp2.StatusCode)
	}
	var h struct {
		Status string `json:"status"`
	}
	json.NewDecoder(resp2.Body).Decode(&h)
	if h.Status != "down" {
		t.Fatalf("status %q, want down", h.Status)
	}
}

// TestRankDeterminism pins the routing function itself: same inputs,
// same order, and the primary depends only on the fingerprint.
func TestRankDeterminism(t *testing.T) {
	rt, err := New(Config{Nodes: []Node{
		{Name: "a", URL: "http://a"},
		{Name: "b", URL: "http://b"},
		{Name: "c", URL: "http://c"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	r1 := rt.rank("fp-one", 50, 218)
	r2 := rt.rank("fp-one", 50, 218)
	for i := range r1 {
		if r1[i].Name != r2[i].Name {
			t.Fatalf("rank not deterministic: %v vs %v", r1, r2)
		}
	}
	// Geometry must not move the primary, only the failover tail.
	r3 := rt.rank("fp-one", 9000, 4)
	if r3[0].Name != r1[0].Name {
		t.Fatalf("geometry changed the primary: %q vs %q", r3[0].Name, r1[0].Name)
	}
}
