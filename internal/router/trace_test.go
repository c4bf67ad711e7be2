package router

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/obs"
)

// TestTracePropagationAndMerge pins the fleet-hop tracing contract:
// the router stamps a trace ID on the forwarded submission, the
// replica adopts it, and GET /jobs/{id}/trace answers one tree — the
// router's submit-side spans with the replica's tree grafted under
// them, all under the stamped trace ID.
func TestTracePropagationAndMerge(t *testing.T) {
	b0 := newFakeBackend(t, "n0")
	_, ts := newTestRouter(t, nil, b0)

	resp, m := postSolve(t, ts.URL, dimacsA)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("solve: HTTP %d", resp.StatusCode)
	}
	id, _ := m["id"].(string)
	if id == "" {
		t.Fatalf("no job id in %v", m)
	}

	stamped, _ := b0.lastTrace.Load().(string)
	if stamped == "" {
		t.Fatal("backend saw no X-NBL-Trace header on the forwarded solve")
	}

	tresp, err := http.Get(ts.URL + "/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace: HTTP %d", tresp.StatusCode)
	}
	var tr obs.TraceJSON
	if err := json.NewDecoder(tresp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}

	if tr.TraceID != stamped {
		t.Errorf("merged trace ID %q, want the stamped %q", tr.TraceID, stamped)
	}
	if tr.Job != id {
		t.Errorf("merged trace job %q, want %q", tr.Job, id)
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "router.submit" {
		t.Fatalf("want a single router.submit root, got %+v", tr.Spans)
	}
	if tr.Find("router.forward") == nil {
		t.Error("merged trace has no router.forward span")
	}
	// The replica's tree must hang under the router root, not float
	// beside it.
	job := tr.Find("job")
	if job == nil {
		t.Fatal("replica's job root was not grafted into the merged tree")
	}
	if tr.Find("solve") == nil {
		t.Error("replica's child spans were lost in the graft")
	}

	// Unknown ids still 404.
	nf, err := http.Get(ts.URL + "/jobs/n0-nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job trace: HTTP %d, want 404", nf.StatusCode)
	}
}

// TestTraceRelayWithoutRouterSide: when the router's own trace is gone
// (restart, ring eviction), the replica's tree is relayed alone with
// the namespaced job id, rather than 404ing a perfectly good trace.
func TestTraceRelayWithoutRouterSide(t *testing.T) {
	b0 := newFakeBackend(t, "n0")
	rt, ts := newTestRouter(t, nil, b0)

	resp, m := postSolve(t, ts.URL, dimacsA)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("solve: HTTP %d", resp.StatusCode)
	}
	id, _ := m["id"].(string)

	// Simulate a router restart: the id still names its node, but the
	// in-memory trace ring is lost.
	rt.traces = obs.NewRing(1)

	tresp, err := http.Get(ts.URL + "/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace: HTTP %d", tresp.StatusCode)
	}
	var tr obs.TraceJSON
	if err := json.NewDecoder(tresp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.Job != id {
		t.Errorf("relayed trace job %q, want namespaced %q", tr.Job, id)
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "job" {
		t.Fatalf("want the replica's job root relayed as-is, got %+v", tr.Spans)
	}
}
