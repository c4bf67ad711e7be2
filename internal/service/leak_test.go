package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/verdictstore"
)

// php32DIMACS is the pigeonhole formula for 3 pigeons and 2 holes:
// UNSAT, so local search runs until its flip budget or a cancel.
const php32DIMACS = "p cnf 6 9\n1 2 0\n3 4 0\n5 6 0\n-1 -3 0\n-1 -5 0\n-3 -5 0\n-2 -4 0\n-2 -6 0\n-4 -6 0\n"

// waitForGoroutines waits, up to a deadline, until no more goroutines
// run than the start count, and fails with every stack otherwise.
func waitForGoroutines(t *testing.T, start int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after shutdown, %d before:\n%s",
				runtime.NumGoroutine(), start, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

// TestShutdownLeavesNoGoroutines runs sync, async and cancelled jobs
// over HTTP against a server with a verdict store, shuts it down and
// closes the store: no worker, engine, portfolio member, pipeline
// fan-out or connection goroutine may outlive them.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	start := runtime.NumGoroutine()
	vs, err := verdictstore.Open(filepath.Join(t.TempDir(), "verdicts.nbl"))
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{Workers: 2, Store: vs})
	ts := httptest.NewServer(s.Handler())
	client := ts.Client()
	do := func(method, path, body string) jobJSON {
		t.Helper()
		req, _ := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var j jobJSON
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil || resp.StatusCode >= 400 {
			t.Fatalf("%s %s: HTTP %d, %v", method, path, resp.StatusCode, err)
		}
		return j
	}

	for _, engine := range []string{"cdcl", "pre(portfolio)", "portfolio"} {
		if j := do("POST", "/solve?sync=1&model=1&engine="+engine, paperSATDIMACS); j.State != StateDone {
			t.Fatalf("sync %s: %+v", engine, j)
		}
	}
	for _, engine := range []string{"pre(cdcl)", "pre(portfolio)"} {
		j := do("POST", "/solve?engine="+engine, php32DIMACS)
		if j = do("GET", "/jobs/"+j.ID+"?wait=5s", ""); j.State != StateDone {
			t.Fatalf("async %s: %+v", engine, j)
		}
	}
	// walksat never ends on an UNSAT formula: it runs until cancelled.
	j := do("POST", "/solve?engine=walksat&flips=1000000000&restarts=1000&seed=5", php32DIMACS)
	do("DELETE", "/jobs/"+j.ID, "")
	deadline := time.Now().Add(5 * time.Second)
	for j.State != StateCancelled {
		if time.Now().After(deadline) {
			t.Fatalf("job never cancelled: %+v", j)
		}
		j = do("GET", "/jobs/"+j.ID+"?wait=1s", "")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	client.CloseIdleConnections()
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}
	if vs.Stats().Entries == 0 {
		t.Error("no verdict reached the store")
	}
	waitForGoroutines(t, start)
}
