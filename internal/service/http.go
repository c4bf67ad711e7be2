// HTTP surface of the solve service. Endpoints:
//
//	POST   /solve          DIMACS body -> job (async by default; ?sync=1 waits)
//	POST   /solve/batch    many DIMACS instances in one body -> array of jobs
//	GET    /jobs           list job snapshots
//	GET    /jobs/{id}      one snapshot; ?wait=2s long-polls for completion
//	GET    /jobs/{id}/events  SSE stream of progress snapshots until terminal
//	DELETE /jobs/{id}      cancel (queued or running)
//	GET    /metrics        Prometheus text exposition
//	GET    /healthz        liveness + basic gauges
//
// POST /solve and /solve/batch take the request model of
// internal/api: its query knobs, body forms and body cap, shared with
// the fleet router. task=count and task=weighted-count return the
// exact model count (or clause-cover-weighted count K') as
// result.count, a decimal string; a task=equivalent job reports
// "equivalent" once its miter is decided. Every instance of a batch
// fans out through the job manager under the shared knobs; the
// response is an array with one entry per instance, each carrying
// either the submitted job or that instance's own error with the
// status a single /solve would have answered (400 for a parse
// failure, 503 for a full queue — per instance, so one full-queue
// rejection does not waste the instances already admitted).
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/dimacs"
	"repro/internal/enginepool"
	"repro/internal/obs"
	"repro/internal/solver"
)

// Handler returns the service's HTTP handler. With Config.NodeID set,
// every response carries an X-NBL-Node header naming this replica, so
// a request that reached the node through the fleet router is
// attributable without consulting any logs.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /solve", s.handleSolve)
	mux.HandleFunc("POST /solve/batch", s.handleSolveBatch)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.cfg.NodeID == "" {
		return mux
	}
	node := s.cfg.NodeID
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-NBL-Node", node)
		mux.ServeHTTP(w, r)
	})
}

// jobJSON is the wire form of a job snapshot.
type jobJSON struct {
	ID     string `json:"id"`
	Engine string `json:"engine"`
	// Task is present for non-decide jobs only, so decide responses are
	// byte-compatible with the pre-task wire form.
	Task      solver.Task    `json:"task,omitempty"`
	State     State          `json:"state"`
	Submitted time.Time      `json:"submitted"`
	Started   *time.Time     `json:"started,omitempty"`
	Finished  *time.Time     `json:"finished,omitempty"`
	CacheHit  bool           `json:"cache_hit,omitempty"`
	Progress  *solver.Stats  `json:"progress,omitempty"`
	Result    *solver.Result `json:"result,omitempty"`
	// Equivalent answers a task=equivalent job directly: the miter's
	// UNSAT certifies equivalence, its SAT refutes it. Absent until the
	// verdict is definitive.
	Equivalent *bool  `json:"equivalent,omitempty"`
	Error      string `json:"error,omitempty"`
}

func snapshotJSON(snap Snapshot) jobJSON {
	out := jobJSON{
		ID:        snap.ID,
		Engine:    snap.Engine,
		State:     snap.State,
		Submitted: snap.Submitted,
		CacheHit:  snap.CacheHit,
	}
	if snap.Task != "" && snap.Task != solver.TaskDecide {
		out.Task = snap.Task
	}
	if snap.Task == solver.TaskEquivalent && snap.Result.Status.Definitive() {
		eq := snap.Result.Status == solver.StatusUnsat
		out.Equivalent = &eq
	}
	if !snap.Started.IsZero() {
		t := snap.Started
		out.Started = &t
	}
	if !snap.Finished.IsZero() {
		t := snap.Finished
		out.Finished = &t
	}
	if snap.State == StateRunning && snap.Progress != (solver.Stats{}) {
		p := snap.Progress
		out.Progress = &p
	}
	if snap.State.Terminal() {
		r := snap.Result
		out.Result = &r
	}
	if snap.Err != nil {
		out.Error = snap.Err.Error()
	}
	return out
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	req, f, _, err := api.Solve(w, r)
	if err != nil {
		api.WriteError(w, api.Code(err), err)
		return
	}
	// A router-stamped trace ID makes this job's spans part of the
	// fleet-level trace instead of starting a fresh one.
	req.TraceID = r.Header.Get("X-NBL-Trace")

	job, err := s.Submit(f, req)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}

	if req.Sync {
		select {
		case <-job.Done():
		case <-r.Context().Done():
			// Client went away; the job keeps running for later polls.
			api.WriteJSON(w, http.StatusAccepted, snapshotJSON(job.Snapshot()))
			return
		}
		api.WriteJSON(w, http.StatusOK, snapshotJSON(job.Snapshot()))
		return
	}
	w.Header().Set("Location", "/jobs/"+job.ID)
	api.WriteJSON(w, http.StatusAccepted, snapshotJSON(job.Snapshot()))
}

// submitErrorCode maps a Submit failure onto the HTTP status a single
// /solve would answer with; /solve/batch reuses it per instance.
func submitErrorCode(err error) int {
	if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrShuttingDown) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// writeSubmitError writes a Submit failure, attaching the remaining
// drain grace as a Retry-After header to shutdown 503s so clients (and
// the fleet router's failover) know when this node is worth retrying.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	s.setRetryAfter(w, err)
	api.WriteError(w, submitErrorCode(err), err)
}

// setRetryAfter adds the Retry-After header for a drain rejection when
// the remaining grace is known.
func (s *Server) setRetryAfter(w http.ResponseWriter, err error) {
	if !errors.Is(err, ErrShuttingDown) {
		return
	}
	if secs, ok := s.RetryAfterSeconds(); ok {
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
}

// handleSolveBatch fans one multi-instance DIMACS body out through the
// job manager. Instances are admitted independently: a parse failure
// or full queue marks its own entry and the rest proceed, so the
// response array always lines up index-for-index with the instances in
// the body. The response status is api.BatchStatus's.
func (s *Server) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	req, chunks, err := api.Batch(w, r)
	if err != nil {
		api.WriteError(w, api.Code(err), err)
		return
	}
	items := make([]api.BatchItem, len(chunks))
	for i, chunk := range chunks {
		items[i].Index = i
		f, err := dimacs.ReadString(chunk)
		if err != nil {
			items[i].Error, items[i].Code = err.Error(), http.StatusBadRequest
			continue
		}
		job, err := s.Submit(f, req)
		if err != nil {
			items[i].Error, items[i].Code = err.Error(), submitErrorCode(err)
			// A drain rejection stamps the whole response's Retry-After:
			// the remaining instances will be refused for the same reason.
			s.setRetryAfter(w, err)
			continue
		}
		jj := snapshotJSON(job.Snapshot())
		items[i].Job = &jj
	}
	api.WriteJSON(w, api.BatchStatus(items), items)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]jobJSON, len(jobs))
	for i, j := range jobs {
		out[i] = snapshotJSON(j.Snapshot())
	}
	api.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.Job(r.PathValue("id"))
	if err != nil {
		api.WriteError(w, http.StatusNotFound, err)
		return
	}
	if wv := r.URL.Query().Get("wait"); wv != "" {
		d, err := time.ParseDuration(wv)
		if err != nil || d < 0 {
			api.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad wait %q", wv))
			return
		}
		// Long-poll: return at completion or after the wait window,
		// whichever comes first (the snapshot tells the caller which).
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-job.Done():
		case <-t.C:
		case <-r.Context().Done():
		}
	}
	api.WriteJSON(w, http.StatusOK, snapshotJSON(job.Snapshot()))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.Cancel(id); err != nil {
		api.WriteError(w, http.StatusNotFound, err)
		return
	}
	job, err := s.Job(id)
	if err != nil {
		api.WriteError(w, http.StatusNotFound, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, snapshotJSON(job.Snapshot()))
}

// handleEvents streams job snapshots as server-sent events: one
// "progress" event per tick while the job runs (carrying the live
// Stats the Monte-Carlo sampler publishes at round boundaries), then a
// final "done" event with the terminal snapshot.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, err := s.Job(r.PathValue("id"))
	if err != nil {
		api.WriteError(w, http.StatusNotFound, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		api.WriteError(w, http.StatusNotImplemented, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(event string) bool {
		data, err := json.Marshal(snapshotJSON(job.Snapshot()))
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	if !send("progress") {
		return
	}
	for {
		select {
		case <-job.Done():
			send("done")
			return
		case <-tick.C:
			if !send("progress") {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleTrace serves a terminal job's span tree. A job still queued
// or running has no completed trace yet; one evicted from the ring by
// newer traffic is gone — both are 404s that say which.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if tj := s.Trace(id); tj != nil {
		api.WriteJSON(w, http.StatusOK, tj)
		return
	}
	if job, err := s.Job(id); err == nil {
		if !job.Snapshot().State.Terminal() {
			api.WriteError(w, http.StatusNotFound,
				fmt.Errorf("job %q has not finished; traces are recorded at completion", id))
			return
		}
		api.WriteError(w, http.StatusNotFound,
			fmt.Errorf("trace for job %q was evicted from the trace ring", id))
		return
	}
	api.WriteError(w, http.StatusNotFound, ErrNoSuchJob)
}

// traceSummaryJSON is one /debug/traces row: enough to pick a trace
// to fetch in full from /jobs/{id}/trace.
type traceSummaryJSON struct {
	TraceID string `json:"trace_id"`
	Job     string `json:"job"`
	Root    string `json:"root,omitempty"`
	DurUS   int64  `json:"dur_us"`
	Spans   int    `json:"spans"`
}

// handleTraces lists recently completed traces, newest first
// (?n= caps the count, default 20).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 20
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			api.WriteError(w, http.StatusBadRequest, fmt.Errorf("n must be a positive integer"))
			return
		}
		n = parsed
	}
	// Size the list from the traces returned: RecentTraces clamps n to
	// the ring, and a client's n must not size an allocation.
	traces := s.RecentTraces(n)
	out := make([]traceSummaryJSON, 0, len(traces))
	for _, tj := range traces {
		row := traceSummaryJSON{TraceID: tj.TraceID, Job: tj.Job}
		if len(tj.Spans) > 0 {
			row.Root = tj.Spans[0].Name
			row.DurUS = tj.Spans[0].DurUS
		}
		tj.Walk(func(*obs.SpanJSON) { row.Spans++ })
		out = append(out, row)
	}
	api.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var g gauges
	g.queued, g.running = s.Counts()
	g.cacheHits, g.storeHits, g.cacheMisses, g.cacheEvictions, g.cacheEntries = s.cache.stats()
	if st := s.cache.store; st != nil {
		g.store, g.storePresent = st.Stats(), true
	}
	g.pool = enginepool.Default.Stats()
	g.node = s.cfg.NodeID
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.write(w, g)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	queued, running := s.Counts()
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"queued":  queued,
		"running": running,
		"engines": solver.Engines(),
		"metas":   solver.Metas(),
	})
}
