// HTTP surface of the fleet router. The endpoint set mirrors
// nblserve's so a client can talk to one replica or the fleet front
// without changing shape:
//
//	POST   /solve             route by canonical fingerprint, proxy
//	POST   /solve/batch       split, route each instance independently
//	GET    /jobs              union of every replica's jobs
//	GET    /jobs/{id}         proxy to the owning replica (?wait=...)
//	GET    /jobs/{id}/events  proxy the SSE stream, ids renamespaced
//	DELETE /jobs/{id}         proxy the cancel
//	GET    /jobs/{id}/trace   merged fleet trace (router + replica spans)
//	GET    /metrics           fleet aggregation (see handleMetrics)
//	GET    /healthz           per-node health + overall verdict
package router

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/api"
	"repro/internal/dimacs"
	"repro/internal/obs"
	"repro/internal/obs/prom"
)

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /solve", rt.handleSolve)
	mux.HandleFunc("POST /solve/batch", rt.handleBatch)
	mux.HandleFunc("GET /jobs", rt.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", rt.handleJob)
	mux.HandleFunc("DELETE /jobs/{id}", rt.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", rt.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/trace", rt.handleTrace)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	return mux
}

// copyBackendHeaders forwards the response headers a client of a
// single replica would have seen — notably X-NBL-Node, which is how
// a fleet client learns which replica answered.
func copyBackendHeaders(w http.ResponseWriter, h http.Header) {
	for _, name := range []string{"X-NBL-Node", "Content-Type", "Retry-After"} {
		if v := h.Get(name); v != "" {
			w.Header().Set(name, v)
		}
	}
}

// handleSolve refuses what a replica would refuse, then routes the
// parsed formula — for an equivalence pair its miter, so renamed twins
// of the question share a replica — and forwards the client's
// original bytes.
func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	_, f, body, err := api.Solve(w, r)
	if err != nil {
		api.WriteError(w, api.Code(err), err)
		return
	}
	rep, err := rt.submit(r, f, r.URL.RawQuery, body)
	if err != nil {
		if api.Code(err) == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", strconv.Itoa(rt.retryAfterFleet()))
		}
		api.WriteError(w, api.Code(err), err)
		return
	}
	copyBackendHeaders(w, rep.header)
	if rep.id != "" {
		w.Header().Set("Location", "/jobs/"+rep.id)
	}
	w.WriteHeader(rep.code)
	w.Write(rep.body) //nolint:errcheck // client gone; nothing to do
}

// handleBatch splits the body exactly as a replica would, then routes
// every instance independently — two instances of one batch land on
// different replicas when their fingerprints say so. Each instance is
// forwarded as its own /solve, so per-instance admission (and
// failover) works the same as for single submissions.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	_, chunks, err := api.Batch(w, r)
	if err != nil {
		api.WriteError(w, api.Code(err), err)
		return
	}
	// sync would serialize the whole batch through each instance's
	// forward; the service's batch endpoint ignores it, so drop it.
	q, _ := url.ParseQuery(r.URL.RawQuery)
	q.Del("sync")
	query := q.Encode()

	items := make([]api.BatchItem, len(chunks))
	for i, chunk := range chunks {
		items[i].Index = i
		f, err := dimacs.ReadString(chunk)
		if err != nil {
			items[i].Error, items[i].Code = err.Error(), http.StatusBadRequest
			continue
		}
		rep, err := rt.submit(r, f, query, []byte(chunk))
		switch {
		case err != nil:
			items[i].Error, items[i].Code = err.Error(), api.Code(err)
		case rep.id == "":
			var refusal struct {
				Error string `json:"error"`
			}
			json.Unmarshal(rep.body, &refusal) //nolint:errcheck // best effort
			if refusal.Error == "" {
				refusal.Error = fmt.Sprintf("%s: HTTP %d", rep.node, rep.code)
			}
			items[i].Error, items[i].Code = refusal.Error, rep.code
		default:
			items[i].Job = json.RawMessage(rep.body)
		}
	}
	code := api.BatchStatus(items)
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(rt.retryAfterFleet()))
	}
	api.WriteJSON(w, code, items)
}

// handleJobs unions every replica's job list under namespaced ids. A
// replica that fails to answer is skipped (and counted), not fatal:
// a partial fleet listing is more useful than none.
func (rt *Router) handleJobs(w http.ResponseWriter, r *http.Request) {
	all := make([]json.RawMessage, 0, 16)
	for _, nd := range rt.nodes {
		resp, err := rt.get(r, nd, "/jobs")
		if err != nil {
			rt.scrapeErrors.Add(1)
			continue
		}
		var jobs []json.RawMessage
		err = json.NewDecoder(io.LimitReader(resp.Body, api.MaxBodyBytes)).Decode(&jobs)
		resp.Body.Close()
		if err != nil {
			rt.scrapeErrors.Add(1)
			continue
		}
		for _, raw := range jobs {
			if out, _, err := rewriteJobID(nd.Name, raw); err == nil {
				all = append(all, out)
			}
		}
	}
	api.WriteJSON(w, http.StatusOK, all)
}

func (rt *Router) get(r *http.Request, nd Node, pathAndQuery string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, nd.URL+pathAndQuery, nil)
	if err != nil {
		return nil, err
	}
	return backend.Do(req)
}

// proxyJob forwards one job-scoped request (snapshot or cancel) to
// the owning replica and relays the response with the id renamespaced.
func (rt *Router) proxyJob(w http.ResponseWriter, r *http.Request, method string) {
	id := r.PathValue("id")
	nd, remote, ok := rt.resolve(id)
	if !ok {
		api.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	path := "/jobs/" + remote
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), method, nd.URL+path, nil)
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	resp, err := backend.Do(req)
	if err != nil {
		api.WriteError(w, http.StatusBadGateway, fmt.Errorf("%s unreachable: %w", nd.Name, err))
		return
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, api.MaxBodyBytes))
	if err != nil {
		api.WriteError(w, http.StatusBadGateway, fmt.Errorf("reading %s: %w", nd.Name, err))
		return
	}
	rt.proxied.Add(1)
	copyBackendHeaders(w, resp.Header)
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out, _, rerr := rewriteJobID(nd.Name, raw); rerr == nil {
			raw = out
		}
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(raw) //nolint:errcheck // client gone; nothing to do
}

func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	rt.proxyJob(w, r, http.MethodGet)
}

func (rt *Router) handleCancel(w http.ResponseWriter, r *http.Request) {
	rt.proxyJob(w, r, http.MethodDelete)
}

// handleEvents streams the owning replica's SSE feed through,
// renamespacing the id inside each event's data payload. Everything
// else in the payload passes through untouched.
func (rt *Router) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	nd, remote, ok := rt.resolve(id)
	if !ok {
		api.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	fl, flOK := w.(http.Flusher)
	if !flOK {
		api.WriteError(w, http.StatusNotImplemented, fmt.Errorf("streaming unsupported"))
		return
	}
	resp, err := rt.get(r, nd, "/jobs/"+remote+"/events")
	if err != nil {
		api.WriteError(w, http.StatusBadGateway, fmt.Errorf("%s unreachable: %w", nd.Name, err))
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		copyBackendHeaders(w, resp.Header)
		w.WriteHeader(resp.StatusCode)
		w.Write(raw) //nolint:errcheck // client gone; nothing to do
		return
	}
	rt.proxied.Add(1)
	copyBackendHeaders(w, resp.Header)
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// A done event carries the whole snapshot, model included, on one
	// data line, so a line may be as long as any relayed body.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), api.MaxBodyBytes)
	for sc.Scan() {
		line := sc.Text()
		if data, found := strings.CutPrefix(line, "data: "); found {
			if out, _, err := rewriteJobID(nd.Name, []byte(data)); err == nil {
				line = "data: " + string(out)
			}
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return
		}
		if line == "" { // event boundary
			fl.Flush()
		}
	}
	fl.Flush()
}

// handleTrace answers the fleet view of one job's trace. The owning
// replica holds the bulk of the tree (queue, cache, pool, pipeline,
// engine checks); it shares a trace ID with the router's own
// submit-side spans through the X-NBL-Trace stamp, so the two trees
// merge here — the replica's roots graft under the router's
// router.submit span. If the router's side is gone (restart, ring
// eviction) the replica's tree is relayed alone, renamespaced.
func (rt *Router) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	nd, remote, ok := rt.resolve(id)
	if !ok {
		api.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	resp, err := rt.get(r, nd, "/jobs/"+remote+"/trace")
	if err != nil {
		api.WriteError(w, http.StatusBadGateway, fmt.Errorf("%s unreachable: %w", nd.Name, err))
		return
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, api.MaxBodyBytes))
	if err != nil {
		api.WriteError(w, http.StatusBadGateway, fmt.Errorf("reading %s: %w", nd.Name, err))
		return
	}
	if resp.StatusCode != http.StatusOK {
		copyBackendHeaders(w, resp.Header)
		w.WriteHeader(resp.StatusCode)
		w.Write(raw) //nolint:errcheck // client gone; nothing to do
		return
	}
	var replica obs.TraceJSON
	if err := json.Unmarshal(raw, &replica); err != nil {
		api.WriteError(w, http.StatusBadGateway,
			fmt.Errorf("%s answered an unreadable trace: %w", nd.Name, err))
		return
	}
	rt.proxied.Add(1)
	replica.Job = id
	merged := rt.traces.ByJob(id).JSON()
	if merged == nil {
		api.WriteJSON(w, http.StatusOK, &replica)
		return
	}
	merged.Job = id
	merged.Graft(&replica)
	api.WriteJSON(w, http.StatusOK, merged)
}

// handleMetrics writes the fleet view in three layers:
//
//  1. the router's own nblrouter_* counters;
//  2. every replica's families relabeled with node="<name>" (lines
//     already carrying a node label — nblserve_node_info — pass
//     through untouched);
//  3. nblfleet_* sums: each nblserve_* family summed across nodes,
//     grouped by its remaining labels, so "how many solves did the
//     fleet do" is one line regardless of fleet size.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	prom.Gauge(&b, "nblrouter_nodes", "Replicas this router fronts.", int64(len(rt.nodes)))
	for _, c := range []struct {
		name, help string
		v          *atomic.Int64
	}{
		{"nblrouter_submits_total", "Solve submissions routed to a replica.", &rt.submits},
		{"nblrouter_submit_errors_total", "Submissions no replica would take.", &rt.submitErrors},
		{"nblrouter_failovers_total", "Forwards that fell through to a lower-ranked replica.", &rt.failovers},
		{"nblrouter_proxied_total", "Job-scoped requests proxied to the owning replica.", &rt.proxied},
		{"nblrouter_scrape_errors_total", "Replica scrapes that failed.", &rt.scrapeErrors},
	} {
		prom.Counter(&b, c.name, c.help, c.v.Load())
	}

	fleet := make(map[string]float64)
	var fleetOrder []string
	for _, nd := range rt.nodes {
		resp, err := rt.get(r, nd, "/metrics")
		if err != nil {
			rt.scrapeErrors.Add(1)
			continue
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			name, labels, valStr, val, ok := parseMetricLine(line)
			if !ok {
				continue
			}
			if strings.Contains(labels, `node="`) {
				fmt.Fprintln(&b, line)
				continue
			}
			if labels == "" {
				fmt.Fprintf(&b, "%s{node=%q} %s\n", name, nd.Name, valStr)
			} else {
				fmt.Fprintf(&b, "%s{node=%q,%s} %s\n", name, nd.Name, labels, valStr)
			}
			if suffix, found := strings.CutPrefix(name, "nblserve_"); found {
				key := "nblfleet_" + suffix
				if labels != "" {
					key += "{" + labels + "}"
				}
				if _, seen := fleet[key]; !seen {
					fleetOrder = append(fleetOrder, key)
				}
				fleet[key] += val
			}
		}
		resp.Body.Close()
	}
	sort.Strings(fleetOrder)
	for _, key := range fleetOrder {
		fmt.Fprintf(&b, "%s %s\n", key, strconv.FormatFloat(fleet[key], 'g', -1, 64))
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, b.String()) //nolint:errcheck // client gone; nothing to do
}

// parseMetricLine splits a Prometheus text-format sample line into
// name, label body (no braces), and value.
func parseMetricLine(line string) (name, labels, valStr string, val float64, ok bool) {
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", "", "", 0, false
	}
	metric, valStr := line[:sp], line[sp+1:]
	v, err := strconv.ParseFloat(valStr, 64)
	if err != nil {
		return "", "", "", 0, false
	}
	if open := strings.IndexByte(metric, '{'); open >= 0 {
		if !strings.HasSuffix(metric, "}") {
			return "", "", "", 0, false
		}
		return metric[:open], metric[open+1 : len(metric)-1], valStr, v, true
	}
	return metric, "", valStr, v, true
}

// nodeHealth is one replica's slot in the fleet /healthz answer.
type nodeHealth struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Cooling int    `json:"cooling_seconds,omitempty"`
	Error   string `json:"error,omitempty"`
}

// handleHealthz probes every replica. The fleet is "ok" while at
// least one replica answers; with none, the router is a front for
// nothing and says so with a 503.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	out := make([]nodeHealth, len(rt.nodes))
	healthy := 0
	for i, nd := range rt.nodes {
		out[i] = nodeHealth{Name: nd.Name, URL: nd.URL}
		if until, resting := rt.cooling(nd.Name); resting {
			out[i].Cooling = int(until.Sub(rt.now()).Seconds()) + 1
		}
		resp, err := rt.get(r, nd, "/healthz")
		if err != nil {
			out[i].Error = err.Error()
			continue
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck // drain for reuse
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			out[i].Healthy = true
			healthy++
		} else {
			out[i].Error = fmt.Sprintf("HTTP %d", resp.StatusCode)
		}
	}
	status, code := "ok", http.StatusOK
	if healthy == 0 {
		status, code = "down", http.StatusServiceUnavailable
	}
	api.WriteJSON(w, code, map[string]any{
		"status": status,
		"nodes":  out,
	})
}
