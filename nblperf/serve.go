package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/cnf"
	"repro/internal/dimacs"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/service"
	"repro/internal/solver"
	"repro/internal/verdictstore"
)

// errRefused marks a 503: the surface turned the job away.
var errRefused = errors.New("refused")

// httpSurface is an in-process nblserve, or nblrouter over replicas,
// behind loopback HTTP, driven the way a client drives the binaries.
type httpSurface struct {
	base   string
	client *http.Client
	// fleet marks a router front: its spans root at router.submit, and
	// the router parses and canonicalizes a body before its root span.
	fleet bool
	// closers tear the surface down in reverse order of construction.
	closers []func()
}

func newHTTPSurface() *httpSurface {
	// Two clients at most, so two connections at most.
	return &httpSurface{client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
	}}}
}

func (h *httpSurface) close() {
	h.client.CloseIdleConnections()
	for i := len(h.closers) - 1; i >= 0; i-- {
		h.closers[i]()
	}
}

// serve puts srv behind a loopback listener, registering its teardown.
func (h *httpSurface) serve(srv *service.Server) string {
	h.closers = append(h.closers, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "nblperf: service shutdown:", err)
		}
	})
	ts := httptest.NewServer(srv.Handler())
	h.closers = append(h.closers, ts.Close)
	return ts.URL
}

// openService is one nblserve with its defaults: 2 workers, LRU 4096,
// pre(portfolio), no durable store.
func openService() *httpSurface {
	h := newHTTPSurface()
	h.base = h.serve(service.NewServer(service.Config{}))
	return h
}

// openFleet is nblrouter over two single-worker replicas, each with its
// own verdict store in a new directory under parent ("" selects
// os.TempDir).
func openFleet(parent string) (*httpSurface, error) {
	dir, err := os.MkdirTemp(parent, "nblperf-fleet-")
	if err != nil {
		return nil, err
	}
	h := newHTTPSurface()
	h.fleet = true
	h.closers = append(h.closers, func() { os.RemoveAll(dir) })
	var nodes []router.Node
	for _, name := range []string{"n0", "n1"} {
		st, err := verdictstore.Open(filepath.Join(dir, name+".nbl"))
		if err != nil {
			h.close()
			return nil, err
		}
		h.closers = append(h.closers, func() { st.Close() })
		url := h.serve(service.NewServer(service.Config{Workers: 1, Store: st, NodeID: name}))
		nodes = append(nodes, router.Node{Name: name, URL: url})
	}
	rt, err := router.New(router.Config{Nodes: nodes})
	if err != nil {
		h.close()
		return nil, err
	}
	ts := httptest.NewServer(rt.Handler())
	h.closers = append(h.closers, ts.Close)
	h.base = ts.URL
	return h, nil
}

// jobReply is the part of a job snapshot the benchmark reads.
type jobReply struct {
	ID     string         `json:"id"`
	State  string         `json:"state"`
	Result *solver.Result `json:"result"`
	Error  string         `json:"error"`
}

func (h *httpSurface) solve(ctx context.Context, j job, tl *tally) (reply, error) {
	path := "/solve?sync=1&model=1"
	if j.count {
		path = "/solve?sync=1&task=count"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+path, strings.NewReader(j.body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := h.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusServiceUnavailable:
		if tl != nil {
			tl.add("service.refused", 1)
		}
		return reply{}, fmt.Errorf("%w: %s", errRefused, bytesTrim(raw))
	default:
		return reply{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytesTrim(raw))
	}
	var jr jobReply
	if err := json.Unmarshal(raw, &jr); err != nil {
		return reply{}, fmt.Errorf("decoding job snapshot: %w", err)
	}
	if jr.State != string(service.StateDone) || jr.Result == nil {
		return reply{}, fmt.Errorf("job %s ended %s: %s", jr.ID, jr.State, jr.Error)
	}
	return reply{res: *jr.Result, id: jr.ID}, nil
}

func bytesTrim(b []byte) string { return strings.TrimSpace(string(b)) }

// observe times the parse and canonicalize every body costs the
// program, fetches the job's span tree, and records both. The root
// span covers everything the program traced; the parse that precedes
// it (and, on the router, the canonicalize too) is added back from the
// benchmark's own timing.
func (h *httpSurface) observe(ctx context.Context, j job, r reply, tl *tally) (float64, bool) {
	start := time.Now()
	f, err := dimacs.Read(strings.NewReader(j.body))
	parse := time.Since(start)
	if err != nil {
		return 0, false
	}
	start = time.Now()
	cnf.Canonicalize(f)
	canon := time.Since(start)
	tl.add("dimacs.parse_us", us(parse))
	tl.add("dimacs.body_bytes", float64(len(j.body)))
	tl.add("cnf.canonicalize_us", us(canon))

	tr, err := h.trace(ctx, r.id)
	if err != nil || len(tr.Spans) == 0 {
		fmt.Fprintf(os.Stderr, "nblperf: trace of job %s: %v\n", r.id, err)
		return 0, false
	}
	attributed := recordSpans(tr.Spans[0], tl) + us(parse)
	if h.fleet {
		attributed += us(canon)
	}
	return attributed, true
}

func (h *httpSurface) trace(ctx context.Context, id string) (*obs.TraceJSON, error) {
	var tr obs.TraceJSON
	return &tr, h.getJSON(ctx, "/jobs/"+id+"/trace", &tr)
}

func (h *httpSurface) getJSON(ctx context.Context, path string, v any) error {
	raw, err := h.get(ctx, path)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

func (h *httpSurface) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, bytesTrim(raw))
	}
	return raw, err
}

// counters scrapes the unlabeled samples of the surface's /metrics.
func (h *httpSurface) counters(ctx context.Context) (map[string]float64, error) {
	raw, err := h.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(string(raw)))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// recordSpans records the per-layer view of one job's span tree and
// returns the root span's duration in microseconds. A fleet tree roots
// at router.submit, with router.forward and the replica's grafted job
// tree beneath it.
func recordSpans(root *obs.SpanJSON, tl *tally) float64 {
	job := root
	if root.Name == "router.submit" {
		job = child(root, "job")
		if fwd := child(root, "router.forward"); fwd != nil {
			tl.add("router.submit_self_us", float64(root.DurUS-fwd.DurUS))
			if job != nil {
				tl.add("router.forward_self_us", float64(fwd.DurUS-job.DurUS))
			}
		}
	}
	if job != nil && job.Name == "job" {
		recordJob(job, tl)
	}
	return float64(root.DurUS)
}

// recordJob records a service job tree: the root's self time, and
// every stage span below it.
func recordJob(job *obs.SpanJSON, tl *tally) {
	self := job.DurUS
	for _, c := range job.Children {
		self -= c.DurUS
	}
	tl.add("service.job_self_us", float64(self))
	var comps []float64
	walk(job, func(s *obs.SpanJSON) {
		d := float64(s.DurUS)
		switch s.Name {
		case "queue.wait":
			tl.add("service.queue_wait_ms", d/1e3)
		case "cache.lru":
			tl.add("service.cache_lru_us", d)
			tl.add("service.cache_hit", indicator(attr(s, "hit") == "true"))
		case "pool.acquire":
			tl.add("enginepool.acquire_us", d)
			tl.add("enginepool.warm", indicator(attr(s, "warm") == "true"))
		case "pipeline.simplify":
			tl.add("pipeline.simplify_ms", d/1e3)
			tl.add("pipeline.nm_before", attrFloat(s, "nm_before"))
			tl.add("pipeline.nm_after", attrFloat(s, "nm_after"))
		case "pipeline.decompose":
			tl.add("pipeline.decompose_ms", d/1e3)
			tl.add("pipeline.components", attrFloat(s, "components"))
		case "pipeline.component":
			comps = append(comps, d)
		case "mc.check":
			tl.add("core.check_ms", d/1e3)
			tl.add("core.check_samples", attrFloat(s, "samples"))
			tl.add("core.check_s", d/1e6)
		}
	})
	if len(comps) > 0 {
		slowest, total := 0.0, 0.0
		for _, d := range comps {
			slowest = max(slowest, d)
			total += d
		}
		tl.add("pipeline.component_straggler", ratio(slowest*float64(len(comps)), total))
	}
}

func walk(s *obs.SpanJSON, fn func(*obs.SpanJSON)) {
	fn(s)
	for _, c := range s.Children {
		walk(c, fn)
	}
}

func child(s *obs.SpanJSON, name string) *obs.SpanJSON {
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

func attr(s *obs.SpanJSON, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

func attrFloat(s *obs.SpanJSON, key string) float64 {
	v, _ := strconv.ParseFloat(attr(s, key), 64)
	return v
}
