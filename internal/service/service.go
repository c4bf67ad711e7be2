// Package service is the resident solve service on top of the engine
// registry: nblserve's job manager, bounded worker pool, verdict cache,
// and Prometheus metrics (the HTTP surface lives in http.go, the thin
// binary in cmd/nblserve).
//
// Why a resident process matters for this reproduction: every engine
// setup the paper's construction needs — the 2·n·m-generator noise
// banks, the evaluator scratch, the block buffers — is pure overhead
// when a solve lives and dies with a CLI invocation. The service
// amortizes it three ways:
//
//   - Workers lease engines from the shared lease pool
//     (enginepool.Default) per job. The pool keeps the warm sampling
//     engines (mc, rtw, sbl) idle, keyed by engine expression, config
//     without the seed, and geometry: repeated-geometry traffic reuses
//     noise banks, evaluators, and block buffers via the engines' Reset
//     primitives, whatever seed each request carries. The pre(...) and
//     portfolio shells hold nothing and are built per job, but their
//     components and members lease from the same pool, so those
//     submissions warm up inside too — a warm engine left by one
//     worker's pre(mc) component is picked up by the next bare-mc job,
//     whoever runs it. Pool hit/miss/eviction counters and occupancy
//     are exposed on /metrics.
//   - Repeated formulas dedupe through the verdict cache, keyed by a
//     renaming-stable canonical fingerprint (cnf.Canonicalize):
//     resubmitting a formula — even relabeled — replays the stored
//     verdict in microseconds. Only definitive verdicts are cached;
//     see verdictCache for the UNKNOWN argument.
//   - The paper's live statistics (samples, running S_N mean, standard
//     error) stream out of in-flight jobs via the solver progress hook,
//     and aggregate into /metrics.
//
// Job lifecycle: Submit validates the engine expression, consults the
// cache, and either completes the job instantly (hit) or enqueues it.
// A fixed pool of workers drains the queue; each job's solve runs under
// its own context (per-job deadline, DELETE-driven cancel) derived from
// the server's base context. A terminal job keeps only its answer: its
// formula, solve context and span tree are dropped once the trace is
// in the ring, so the job table's memory follows the answers it serves.
// Shutdown stops intake, lets the pool drain queued and running jobs
// within a grace period, then cancels the base context so stragglers
// return promptly with partial stats.
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/cnf"
	"repro/internal/enginepool"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/verdictstore"
)

// State is a job's lifecycle phase.
type State string

// Job states. Queued and Running are transient; the rest are terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateCancelled State = "cancelled"
	StateFailed    State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateCancelled || s == StateFailed
}

// Config sizes the service.
type Config struct {
	// Workers is the solve-pool size (default 2). It bounds concurrent
	// engine work; queued jobs beyond it wait.
	Workers int
	// QueueDepth bounds the backlog (default 256). A full queue rejects
	// submissions with ErrQueueFull rather than buffering unboundedly.
	QueueDepth int
	// CacheEntries caps the verdict cache (default 4096; <0 disables).
	CacheEntries int
	// DefaultEngine is used when a submission names none (default
	// "pre(portfolio)": preprocess, decompose, race the lineup per
	// component).
	DefaultEngine string
	// Store is an optional durable verdict tier under the LRU cache:
	// definitive verdicts write through to it and survive restarts (see
	// internal/verdictstore). The caller owns the store's lifecycle
	// (Open before NewServer, Close after Shutdown).
	Store *verdictstore.Store
	// NodeID names this replica in a fleet: when non-empty every HTTP
	// response carries it as an X-NBL-Node header and /metrics exports
	// it as a node label, so a request routed through nblrouter is
	// attributable end to end.
	NodeID string
	// MaxCountVars bounds the variable count of counting-task
	// submissions (default 64; <0 disables the bound). Exact counting
	// is exponential in the worst case and the weighted counter
	// enumerates whole components, so an oversized instance must be a
	// 400 at submit, not a worker lost to a year-long solve.
	MaxCountVars int
	// TraceSlow, when positive, logs the full span tree of any job
	// whose submit-to-finish wall time reaches it (the -trace-slow
	// flag): the trace of a slow solve is captured at the moment it
	// matters instead of hoping the ring still holds it later.
	TraceSlow time.Duration
}

const (
	// maxJobs bounds the retained job table. Oldest terminal jobs are
	// evicted first; live jobs are never evicted.
	maxJobs = 65536
	// traceRing caps the completed-trace ring behind
	// GET /jobs/{id}/trace and /debug/traces.
	traceRing = 256
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.DefaultEngine == "" {
		c.DefaultEngine = "pre(portfolio)"
	}
	if c.MaxCountVars == 0 {
		c.MaxCountVars = 64
	}
	return c
}

// Job is one solve request's full lifecycle record. All mutable fields
// are guarded by mu; Done is closed exactly once on reaching a terminal
// state.
type Job struct {
	ID     string
	Engine string
	// Task is what the job computes (decide/count/weighted-count/
	// equivalent). For equivalent the formula is already the lowered
	// miter and the engine runs a plain decide; the task survives here
	// for cache keying, job reporting, and metrics.
	Task solver.Task

	mu        sync.Mutex
	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    solver.Result
	err       error
	cacheHit  bool
	cancelled bool // DELETE was requested
	progress  solver.Stats

	cancel context.CancelFunc
	ctx    context.Context
	done   chan struct{}

	f     *cnf.Formula
	canon *cnf.Canonical // computed at submit, reused by finish's cache put
	cfg   solver.Config

	// trace/root/queueSpan are written once at submit, read by the one
	// goroutine that drives the job, and dropped by release once the
	// trace is in the ring; span mutation locks the trace itself.
	trace     *obs.Trace
	root      *obs.Span
	queueSpan *obs.Span
}

// Errors returned by Submit and the job accessors.
var (
	ErrQueueFull    = errors.New("service: job queue is full")
	ErrShuttingDown = errors.New("service: server is shutting down")
	ErrNoSuchJob    = errors.New("service: no such job")
)

// Server is the resident solve service.
type Server struct {
	cfg    Config
	cache  *verdictCache
	met    *metrics
	traces *obs.Ring // completed traces, newest-first lookup by job id

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu         sync.Mutex
	cond       *sync.Cond // signaled on pending-queue pushes and shutdown
	accepting  bool
	drainUntil time.Time // grace deadline once Shutdown begins (zero: none known)
	jobs       map[string]*Job
	jobOrder   []string // submission order, for listing and eviction
	maxJobs    int      // retention bound: maxJobs, lowered only by tests
	nextID     uint64
	// pending is the backlog deque. A slice (not a channel) on purpose:
	// cancelling a queued job removes it here immediately, so a
	// cancelled job never occupies backlog capacity as a tombstone.
	pending []*Job
	running int64

	wg sync.WaitGroup
}

// NewServer starts cfg.Workers workers and returns the service. Stop it
// with Shutdown.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		cache:      newVerdictCache(cfg.CacheEntries, cfg.Store),
		met:        newMetrics(),
		traces:     obs.NewRing(traceRing),
		baseCtx:    ctx,
		baseCancel: cancel,
		accepting:  true,
		jobs:       make(map[string]*Job),
		maxJobs:    maxJobs,
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit validates, consults the verdict cache, and either completes
// the job immediately (cache hit) or enqueues it for the pool. The
// returned Job is live: poll Snapshot, wait on Done(), cancel with
// Cancel.
func (s *Server) Submit(f *cnf.Formula, req api.Request) (*Job, error) {
	task := req.Task
	if task == "" {
		task = solver.TaskDecide
	}
	if task.Counting() {
		// The engine must count, so the task rides the solver config
		// (pipeline dispatch, pool/cache identity); for equivalent the
		// config stays decide — the formula is already the miter.
		req.Solver.Task = task
		if s.cfg.MaxCountVars >= 0 && f.NumVars > s.cfg.MaxCountVars {
			return nil, fmt.Errorf(
				"service: counting task %s rejected: %d variables exceeds the %d-variable counting bound (-max-count-vars)",
				task, f.NumVars, s.cfg.MaxCountVars)
		}
	}
	engine := req.Engine
	if engine == "" {
		engine = task.DefaultEngine(s.cfg.DefaultEngine)
	}
	// Fail a bad engine expression, config, engine/task mismatch, or a
	// knob the engine's factory refuses at submit time, not on a worker:
	// the submitter is still on the line to see the 400.
	if _, err := solver.NewWith(engine, req.Solver); err != nil {
		return nil, err
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}

	now := time.Now()
	job := &Job{
		Engine:    engine,
		Task:      task,
		state:     StateQueued,
		submitted: now,
		done:      make(chan struct{}),
		f:         f,
		cfg:       req.Solver,
	}
	job.trace = obs.NewTrace(req.TraceID)
	job.root = job.trace.Root("job")
	job.root.SetAttr("engine", engine)
	job.root.SetAttr("task", string(task))

	if s.cache.enabled() {
		job.canon = cnf.Canonicalize(f)
	}
	if res, ok := s.cache.get(job.root, task, engine, req.Solver.Key(), job.canon); ok {
		// Replay: the stored Result verbatim (stats, wall, engine), the
		// model translated through this submission's renaming. The job
		// is terminal *before* register publishes it — once it is
		// visible to GET/DELETE, a concurrent Cancel must only ever see
		// a terminal state (it would otherwise race this finalization).
		job.state = StateDone
		job.started = now
		job.finished = now
		job.result = res
		job.cacheHit = true
		s.mu.Lock()
		if !s.accepting {
			s.mu.Unlock()
			return nil, ErrShuttingDown
		}
		s.register(job)
		s.mu.Unlock()
		s.retire(job, StateDone, res.Status.String(), 0, 0)
		return job, nil
	}

	ctx := s.baseCtx
	var cancel context.CancelFunc
	if req.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, req.Timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	job.ctx, job.cancel = ctx, cancel

	s.mu.Lock()
	if !s.accepting {
		s.mu.Unlock()
		cancel()
		return nil, ErrShuttingDown
	}
	if len(s.pending) >= s.cfg.QueueDepth {
		s.mu.Unlock()
		cancel()
		return nil, ErrQueueFull
	}
	job.queueSpan = job.root.StartChild("queue.wait")
	s.register(job)
	s.pending = append(s.pending, job)
	s.cond.Signal()
	s.mu.Unlock()
	// A per-job deadline must bound the whole job, not just the solve:
	// without a watcher an expired job would sit in the backlog
	// (holding its slot, blocking sync/long-poll waiters) until a
	// worker happened to claim it. The same reap path serves DELETE.
	context.AfterFunc(ctx, func() { s.reapQueued(job) })
	return job, nil
}

// reapQueued finalizes a job as cancelled if it is still in the
// backlog: pulled under s.mu (mutually exclusive with a worker claim),
// so exactly one of reap/claim wins. Running or terminal jobs are left
// alone — their context owners handle them.
func (s *Server) reapQueued(j *Job) {
	s.mu.Lock()
	found := false
	for i, p := range s.pending {
		if p == j {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			found = true
			break
		}
	}
	s.mu.Unlock()
	if !found {
		return
	}
	j.mu.Lock()
	j.cancelled = true
	j.state = StateCancelled
	j.err = j.ctx.Err()
	j.finished = time.Now()
	j.mu.Unlock()
	j.queueSpan.Finish()
	s.retire(j, StateCancelled, "", 0, 0)
}

// register assigns an ID and stores the job; caller holds s.mu.
func (s *Server) register(job *Job) {
	s.nextID++
	job.ID = "j" + strconv.FormatUint(s.nextID, 10)
	job.trace.SetJob(job.ID)
	s.jobs[job.ID] = job
	s.jobOrder = append(s.jobOrder, job.ID)
	// Evict oldest terminal jobs over the retention cap — head-only, so
	// the whole pass is O(evicted) with no splicing under s.mu (the
	// dead backing-array prefix is reclaimed at the next append
	// growth). A still-live head pauses eviction instead of being
	// scanned past: the table then exceeds the cap by at most the
	// number of live jobs (bounded by Workers + QueueDepth), and
	// eviction catches up as soon as the head finishes.
	for len(s.jobs) > s.maxJobs && len(s.jobOrder) > 0 {
		head, ok := s.jobs[s.jobOrder[0]]
		if !ok {
			s.jobOrder = s.jobOrder[1:]
			continue
		}
		head.mu.Lock()
		terminal := head.state.Terminal()
		head.mu.Unlock()
		if !terminal {
			break // oldest retained job still live; retain over cap
		}
		delete(s.jobs, head.ID)
		s.jobOrder = s.jobOrder[1:]
	}
}

// Job returns a job by ID.
func (s *Server) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNoSuchJob
	}
	return j, nil
}

// Jobs returns all retained jobs in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, id := range s.jobOrder {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// Cancel requests cancellation of a job by cancelling its context.
// Queued jobs are reaped out of the backlog (freeing their slot) and
// finish promptly as cancelled via the context watcher; running jobs'
// engines return promptly (ctx polled in every hot loop), freeing the
// worker, and the job finishes cancelled with partial stats. Terminal
// jobs are left untouched.
func (s *Server) Cancel(id string) error {
	j, err := s.Job(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return nil
	}
	j.cancelled = true
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return nil
}

// worker drains the queue until Shutdown closes it. Workers lease
// their engines from the shared pool (enginepool.Default) per job
// instead of pinning warm state to themselves: a worker that has
// solved one uf20-91 instance leaves a warm engine any worker — or a
// pipeline component, or a portfolio member — can pick up for the
// next, so mixed-expression traffic warms up across the whole pool
// rather than per (worker, expression) pair. The pool's LRU capacity
// replaces the old per-worker warm-table bound.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && s.accepting {
			s.cond.Wait()
		}
		if len(s.pending) == 0 {
			// Shutting down and the backlog is drained.
			s.mu.Unlock()
			return
		}
		job := s.pending[0]
		s.pending = s.pending[1:]
		s.running++
		s.mu.Unlock()

		// Claiming removed the job from the backlog under s.mu, so a
		// queued-cancel can no longer reach it; a cancel from here on
		// goes through its context.
		job.mu.Lock()
		job.state = StateRunning
		job.started = time.Now()
		job.mu.Unlock()
		job.queueSpan.Finish()

		acq := job.root.StartChild("pool.acquire")
		lease, err := enginepool.Default.Acquire(job.Engine, job.cfg, job.f)
		if err != nil {
			// Validated at submit; only a racing registry change can
			// land here. Fail the job, not the worker.
			acq.Finish()
			s.finish(job, solver.Result{}, err)
			continue
		}
		acq.SetAttr("warm", strconv.FormatBool(lease.Warm()))
		acq.Finish()
		ctx := solver.ContextWithProgress(job.ctx, func(st solver.Stats) {
			job.mu.Lock()
			job.progress = st
			job.mu.Unlock()
		})
		solveSpan := job.root.StartChild("solve")
		res, err := lease.Solve(obs.ContextWithSpan(ctx, solveSpan))
		solveSpan.Finish()
		lease.Release()
		s.finish(job, res, err)
	}
}

// finish drives a job to its terminal state and updates cache and
// metrics. A cancelled job (DELETE or per-job deadline doing its work)
// is distinguished from a genuine failure.
func (s *Server) finish(job *Job, res solver.Result, err error) {
	job.mu.Lock()
	job.finished = time.Now()
	job.result = res
	switch {
	case err == nil:
		job.state = StateDone
	case job.cancelled || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		job.state = StateCancelled
		job.err = err
	default:
		job.state = StateFailed
		job.err = err
	}
	state := job.state
	job.mu.Unlock()
	if job.cancel != nil {
		job.cancel()
	}

	s.mu.Lock()
	s.running--
	s.mu.Unlock()

	// The cache entry lands before done closes: the instant done is
	// observable (sync responses, long-polls), a client may resubmit
	// the same formula, and it must already hit.
	if state == StateDone && job.canon != nil {
		s.cache.put(job.Task, job.Engine, job.cfg.Key(), job.canon, res)
	}
	s.retire(job, state, res.Status.String(), res.Stats.Samples, res.Wall)
}

// retire is the last step of every path to a terminal state: it
// completes the trace, releases what the job no longer needs, counts it
// and closes done, in that order — release must follow completeTrace,
// which reads the span tree, and every counter must land before done is
// observable (a client may scrape /metrics the instant it is).
func (s *Server) retire(job *Job, state State, status string, samples int64, wall time.Duration) {
	s.completeTrace(job, string(state), status)
	job.release()
	s.met.jobFinished(string(state), job.Engine, job.Task, samples, wall)
	close(job.done)
}

// completeTrace closes a job's root span, lands the trace in the
// ring, feeds the stage histograms from it, and — for jobs at or over
// the -trace-slow threshold — logs the full span tree while it is
// guaranteed to still exist.
func (s *Server) completeTrace(job *Job, state, status string) {
	job.root.SetAttr("state", state)
	if status != "" {
		job.root.SetAttr("status", status)
	}
	job.root.Finish()
	tj := job.trace.JSON()
	s.met.observeTrace(tj)
	s.traces.Add(job.trace)
	if s.cfg.TraceSlow > 0 {
		job.mu.Lock()
		wall := job.finished.Sub(job.submitted)
		job.mu.Unlock()
		if wall >= s.cfg.TraceSlow {
			var buf bytes.Buffer
			fmt.Fprintf(&buf, "slow job %s (%s >= -trace-slow %s)\n", job.ID, wall, s.cfg.TraceSlow)
			obs.WriteTree(&buf, tj)
			log.Print(buf.String())
		}
	}
}

// Trace returns the completed span tree for a job, or nil when the
// ring no longer (or never) held it.
func (s *Server) Trace(jobID string) *obs.TraceJSON {
	return s.traces.ByJob(jobID).JSON()
}

// RecentTraces returns up to n completed traces, newest first.
func (s *Server) RecentTraces(n int) []*obs.TraceJSON {
	traces := s.traces.Recent(n)
	out := make([]*obs.TraceJSON, 0, len(traces))
	for _, t := range traces {
		out = append(out, t.JSON())
	}
	return out
}

// release drops everything a terminal job holds of its solve, keeping
// only its answer: state, times, result and error. The retention table
// is bounded in jobs, not bytes; without this it would pin up to
// maxJobs parsed formulas, canonical forms and span trees. It runs once
// completeTrace has handed the trace to the ring, which from then on is
// the span tree's only holder, so GET /jobs/{id}/trace and
// /debug/traces keep serving the newest traceRing jobs. The solve
// context and its cancel func go too: Cancel leaves a terminal job
// untouched.
func (j *Job) release() {
	j.mu.Lock()
	j.f, j.canon = nil, nil
	j.trace, j.root, j.queueSpan = nil, nil, nil
	j.ctx, j.cancel = nil, nil
	j.mu.Unlock()
}

// Shutdown stops intake and drains the pool: queued and running jobs
// keep solving until done or until ctx expires, at which point the base
// context is cancelled and every engine returns promptly (partial
// stats, cancelled state). It returns nil on a clean drain and ctx's
// error when the grace period ran out.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.accepting {
		s.mu.Unlock()
		return nil
	}
	s.accepting = false
	// Remember the grace deadline: submissions rejected from here on
	// carry it back to clients as a Retry-After, so a router failing
	// over knows exactly how long to route around this node.
	if dl, ok := ctx.Deadline(); ok {
		s.drainUntil = dl
	}
	s.cond.Broadcast() // wake parked workers so they can drain and exit
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.baseCancel()
		<-drained
	}
	s.baseCancel()
	return err
}

// RetryAfterSeconds reports how many whole seconds of drain grace
// remain once Shutdown has begun — the value a 503 carries as its
// Retry-After header. ok is false while the server is accepting or
// when the drain has no deadline; the result is clamped to at least 1
// (a zero Retry-After reads as "retry immediately", the one thing a
// draining node must not invite).
func (s *Server) RetryAfterSeconds() (secs int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.accepting || s.drainUntil.IsZero() {
		return 0, false
	}
	secs = int(math.Ceil(time.Until(s.drainUntil).Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs, true
}

// Counts returns the live queue/running gauges.
func (s *Server) Counts() (queued, running int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.pending)), s.running
}

// Snapshot is a point-in-time copy of a job's observable state.
type Snapshot struct {
	ID        string
	Engine    string
	Task      solver.Task
	State     State
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	CacheHit  bool
	Progress  solver.Stats
	Result    solver.Result
	Err       error
}

// Snapshot returns the job's current observable state.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Snapshot{
		ID:        j.ID,
		Engine:    j.Engine,
		Task:      j.Task,
		State:     j.state,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
		CacheHit:  j.cacheHit,
		Progress:  j.progress,
		Result:    j.result,
		Err:       j.err,
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }
