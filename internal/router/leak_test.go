package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	_ "repro" // registers every engine, as the binaries do
	"repro/internal/service"
	"repro/internal/verdictstore"
)

// php32 is the pigeonhole formula for 3 pigeons and 2 holes: UNSAT, so
// local search runs until its flip budget or a cancel.
const php32 = "p cnf 6 9\n1 2 0\n3 4 0\n5 6 0\n-1 -3 0\n-1 -5 0\n-3 -5 0\n-2 -4 0\n-2 -6 0\n-4 -6 0\n"

// TestShutdownLeavesNoGoroutines runs sync, async and cancelled jobs
// through a router over two nblserve replicas, each with a verdict
// store, then shuts the router and the replicas down and closes the
// stores: no forwarding, proxy, worker or engine goroutine may outlive
// them.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	start := runtime.NumGoroutine()
	var (
		servers []*service.Server
		stores  []*verdictstore.Store
		nodes   []Node
		httpds  []*httptest.Server
	)
	for i := 0; i < 2; i++ {
		vs, err := verdictstore.Open(filepath.Join(t.TempDir(), "verdicts.nbl"))
		if err != nil {
			t.Fatal(err)
		}
		s := service.NewServer(service.Config{Workers: 2, Store: vs})
		ts := httptest.NewServer(s.Handler())
		servers, stores, httpds = append(servers, s), append(stores, vs), append(httpds, ts)
		nodes = append(nodes, Node{Name: fmt.Sprintf("n%d", i), URL: ts.URL})
	}
	rt, err := New(Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	client := front.Client()
	do := func(method, path, body string) map[string]any {
		t.Helper()
		req, _ := http.NewRequest(method, front.URL+path, strings.NewReader(body))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil || resp.StatusCode >= 400 {
			t.Fatalf("%s %s: HTTP %d, %v %v", method, path, resp.StatusCode, m, err)
		}
		return m
	}

	for _, body := range []string{dimacsA, dimacsB} {
		if j := do("POST", "/solve?sync=1&model=1&engine=pre(portfolio)", body); j["state"] != "done" {
			t.Fatalf("sync: %v", j)
		}
	}
	for _, engine := range []string{"cdcl", "pre(portfolio)"} {
		j := do("POST", "/solve?engine="+engine, php32)
		if j = do("GET", fmt.Sprintf("/jobs/%s?wait=5s", j["id"]), ""); j["state"] != "done" {
			t.Fatalf("async %s: %v", engine, j)
		}
	}
	// walksat never ends on an UNSAT formula: it runs until cancelled.
	j := do("POST", "/solve?engine=walksat&flips=1000000000&restarts=1000&seed=5", php32)
	id := j["id"].(string)
	do("DELETE", "/jobs/"+id, "")
	deadline := time.Now().Add(5 * time.Second)
	for j["state"] != "cancelled" {
		if time.Now().After(deadline) {
			t.Fatalf("job never cancelled: %v", j)
		}
		j = do("GET", "/jobs/"+id+"?wait=1s", "")
	}

	front.Close()
	client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i, s := range servers {
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		httpds[i].Close()
		if err := stores[i].Close(); err != nil {
			t.Fatal(err)
		}
	}

	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after shutdown, %d before:\n%s",
				runtime.NumGoroutine(), start, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}
