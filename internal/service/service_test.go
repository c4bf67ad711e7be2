package service

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cnf"
	"repro/internal/solver"
)

// Test engines. svc-echo counts invocations and returns SAT with an
// all-true model; svc-unknown counts invocations and shrugs; svc-gate
// parks until released (or cancelled), with per-job control channels
// keyed by the submission's seed.
var (
	echoCalls    atomic.Int64
	unknownCalls atomic.Int64

	gateMu   sync.Mutex
	gates    = map[uint64]*gateCtl{}
	gateLive atomic.Int64 // currently-running gate solves
	gateMax  atomic.Int64 // high-water mark of gateLive
)

type gateCtl struct {
	started chan struct{} // closed when the solve starts
	release chan struct{} // close to let the solve finish
}

func newGate(seed uint64) *gateCtl {
	g := &gateCtl{started: make(chan struct{}), release: make(chan struct{})}
	gateMu.Lock()
	gates[seed] = g
	gateMu.Unlock()
	return g
}

func init() {
	solver.Register("svc-echo", func(_ string, cfg solver.Config) (solver.Solver, error) {
		return solver.Func(func(ctx context.Context, f *cnf.Formula) (solver.Result, error) {
			n := echoCalls.Add(1)
			// Odd variables true, even false — the test formulas are
			// chosen to be satisfied by exactly this pattern, so the
			// cached model is genuine and its translation checkable.
			model := cnf.NewAssignment(f.NumVars)
			for v := 1; v <= f.NumVars; v++ {
				if v%2 == 1 {
					model.Set(cnf.Var(v), cnf.True)
				} else {
					model.Set(cnf.Var(v), cnf.False)
				}
			}
			return solver.Result{
				Status:     solver.StatusSat,
				Assignment: model,
				Stats:      solver.Stats{Decisions: n, Samples: 100},
			}, nil
		}), nil
	})
	solver.Register("svc-unknown", func(_ string, cfg solver.Config) (solver.Solver, error) {
		return solver.Func(func(ctx context.Context, f *cnf.Formula) (solver.Result, error) {
			unknownCalls.Add(1)
			return solver.Result{Status: solver.StatusUnknown}, nil
		}), nil
	})
	// svc-nomodel: SAT; attaches the odd-true model only when asked.
	solver.Register("svc-nomodel", func(_ string, cfg solver.Config) (solver.Solver, error) {
		return solver.Func(func(ctx context.Context, f *cnf.Formula) (solver.Result, error) {
			out := solver.Result{Status: solver.StatusSat}
			if cfg.FindModel {
				model := cnf.NewAssignment(f.NumVars)
				for v := 1; v <= f.NumVars; v++ {
					if v%2 == 1 {
						model.Set(cnf.Var(v), cnf.True)
					} else {
						model.Set(cnf.Var(v), cnf.False)
					}
				}
				out.Assignment = model
			}
			return out, nil
		}), nil
	})
	solver.Register("svc-gate", func(_ string, cfg solver.Config) (solver.Solver, error) {
		return solver.Func(func(ctx context.Context, f *cnf.Formula) (solver.Result, error) {
			gateMu.Lock()
			g := gates[cfg.Seed]
			gateMu.Unlock()
			if g == nil {
				return solver.Result{}, errors.New("svc-gate: no control channel for seed")
			}
			live := gateLive.Add(1)
			for {
				prev := gateMax.Load()
				if live <= prev || gateMax.CompareAndSwap(prev, live) {
					break
				}
			}
			defer gateLive.Add(-1)
			close(g.started)
			select {
			case <-g.release:
				return solver.Result{Status: solver.StatusSat}, nil
			case <-ctx.Done():
				return solver.Result{Stats: solver.Stats{Samples: 7}}, ctx.Err()
			}
		}), nil
	})
}

func testFormula() *cnf.Formula {
	// All variables occur, so cached model translation is lossless and
	// the all-true model is genuine.
	return cnf.FromClauses([]int{1, 2}, []int{2, 3}, []int{3})
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := NewServer(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func waitDone(t *testing.T, j *Job) Snapshot {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s did not finish: %+v", j.ID, j.Snapshot())
	}
	return j.Snapshot()
}

// TestCacheHitIsBitIdenticalWithoutResolving: the acceptance criterion
// verbatim. The second submission of the same formula must not invoke
// the engine again and must replay the first Result exactly — status,
// model, stats, wall time, engine name.
func TestCacheHitIsBitIdenticalWithoutResolving(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, DefaultEngine: "svc-echo"})
	before := echoCalls.Load()

	j1, err := s.Submit(testFormula(), api.Request{})
	if err != nil {
		t.Fatal(err)
	}
	first := waitDone(t, j1)
	if first.State != StateDone || first.CacheHit {
		t.Fatalf("first solve: %+v", first)
	}

	j2, err := s.Submit(testFormula(), api.Request{})
	if err != nil {
		t.Fatal(err)
	}
	second := waitDone(t, j2)
	if !second.CacheHit {
		t.Fatal("second submission should hit the cache")
	}
	if got := echoCalls.Load() - before; got != 1 {
		t.Fatalf("engine invoked %d times, want 1", got)
	}
	if !reflect.DeepEqual(second.Result, first.Result) {
		t.Fatalf("cache replay not bit-identical:\nfirst  %+v\nsecond %+v", first.Result, second.Result)
	}
}

// TestCacheHitAcrossRenaming: a variable-renamed resubmission must hit
// (canonical fingerprint) and the translated model must satisfy the
// renamed formula.
func TestCacheHitAcrossRenaming(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, DefaultEngine: "svc-echo"})
	before := echoCalls.Load()

	// Satisfied by svc-echo's odd-true model; renamed via 1->3, 2->1,
	// 3->2 with clause order preserved. The translated model assigns
	// renamed variables differently than the original pattern would, so
	// a mapping bug cannot pass by luck.
	f := cnf.FromClauses([]int{1, -2}, []int{3, -2}, []int{1, 3})
	renamed := cnf.FromClauses([]int{3, -1}, []int{2, -1}, []int{3, 2})

	j1, _ := s.Submit(f, api.Request{})
	waitDone(t, j1)
	j2, err := s.Submit(renamed, api.Request{})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitDone(t, j2)
	if !snap.CacheHit {
		t.Fatal("renamed twin should hit the cache")
	}
	if got := echoCalls.Load() - before; got != 1 {
		t.Fatalf("engine invoked %d times, want 1", got)
	}
	if snap.Result.Assignment == nil || !snap.Result.Assignment.Satisfies(renamed) {
		t.Fatalf("translated model %v does not satisfy the renamed formula", snap.Result.Assignment)
	}
}

// TestModelRequestBypassesModellessCacheEntry: a SAT verdict cached
// without a model must not satisfy a later model=1 submission of the
// same formula — the config is part of the cache key, so that solve
// runs for real and later model=1 submissions hit its own entry.
func TestModelRequestBypassesModellessCacheEntry(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, DefaultEngine: "svc-nomodel"})
	f := testFormula()

	j1, err := s.Submit(f, api.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitDone(t, j1); snap.Result.Assignment != nil {
		t.Fatal("precondition: first solve should cache a model-less SAT")
	}

	j2, err := s.Submit(f, api.Request{Solver: solver.Config{FindModel: true}})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitDone(t, j2)
	if snap.CacheHit {
		t.Fatal("model=1 must not be served a model-less cache entry")
	}
	if snap.Result.Assignment == nil || !snap.Result.Assignment.Satisfies(f) {
		t.Fatalf("model solve returned %v", snap.Result.Assignment)
	}

	// The model-ful run has its own entry: a third model=1 submit now
	// hits, model included.
	j3, err := s.Submit(f, api.Request{Solver: solver.Config{FindModel: true}})
	if err != nil {
		t.Fatal(err)
	}
	snap = waitDone(t, j3)
	if !snap.CacheHit || snap.Result.Assignment == nil {
		t.Fatalf("upgraded entry should now serve model requests: %+v", snap)
	}
}

// TestUnknownIsNeverCached: the second acceptance criterion. An
// UNKNOWN verdict is a statement about a run, not the formula; it must
// re-solve every time.
func TestUnknownIsNeverCached(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, DefaultEngine: "svc-unknown"})
	before := unknownCalls.Load()
	for i := 0; i < 3; i++ {
		j, err := s.Submit(testFormula(), api.Request{})
		if err != nil {
			t.Fatal(err)
		}
		snap := waitDone(t, j)
		if snap.CacheHit {
			t.Fatalf("submission %d: UNKNOWN must never be served from cache", i)
		}
		if snap.Result.Status != solver.StatusUnknown {
			t.Fatalf("submission %d: status %v", i, snap.Result.Status)
		}
	}
	if got := unknownCalls.Load() - before; got != 3 {
		t.Fatalf("engine invoked %d times, want 3 (no caching)", got)
	}
	if hits, _, _, _, entries := s.cache.stats(); hits != 0 || entries != 0 {
		t.Fatalf("cache should be empty and hitless: hits=%d entries=%d", hits, entries)
	}
}

// TestConcurrentSubmitsBoundedByPoolSize: six parked jobs on a
// two-worker pool must never run more than two engines at once.
func TestConcurrentSubmitsBoundedByPoolSize(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, DefaultEngine: "svc-gate", CacheEntries: -1})
	gateMax.Store(0)

	const jobs = 6
	var ctls []*gateCtl
	for i := 0; i < jobs; i++ {
		seed := uint64(1000 + i)
		ctls = append(ctls, newGate(seed))
		if _, err := s.Submit(distinctFormula(i), api.Request{Solver: solver.Config{Seed: seed}}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until both workers are parked inside a solve.
	deadline := time.After(5 * time.Second)
	started := 0
	for started < 2 {
		select {
		case <-ctls[started].started:
			started++
		case <-deadline:
			t.Fatalf("only %d gate solves started", started)
		}
	}
	if queued, running := s.Counts(); running != 2 || queued != jobs-2 {
		t.Fatalf("gauges: queued=%d running=%d, want 4/2", queued, running)
	}
	// Release everything and let the pool drain.
	for _, c := range ctls {
		close(c.release)
	}
	for _, j := range s.Jobs() {
		waitDone(t, j)
	}
	if max := gateMax.Load(); max > 2 {
		t.Fatalf("observed %d concurrent solves on a 2-worker pool", max)
	}
}

// distinctFormula returns structurally distinct instances so the cache
// cannot collapse them.
func distinctFormula(i int) *cnf.Formula {
	f := cnf.New(i + 2)
	f.Add(1, i+2)
	f.Add(-(i + 1))
	return f
}

// TestCancelMidJobPropagatesAndFreesWorker: DELETE on a running job
// must cancel the engine's context (partial stats surface) and return
// the worker to the pool for new work.
func TestCancelMidJobPropagatesAndFreesWorker(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, DefaultEngine: "svc-gate", CacheEntries: -1})
	seed := uint64(2000)
	g := newGate(seed)
	j, err := s.Submit(distinctFormula(0), api.Request{Solver: solver.Config{Seed: seed}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-g.started:
	case <-time.After(5 * time.Second):
		t.Fatal("solve never started")
	}

	if err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	snap := waitDone(t, j)
	if snap.State != StateCancelled {
		t.Fatalf("state %v, want cancelled", snap.State)
	}
	if !errors.Is(snap.Err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", snap.Err)
	}
	if snap.Result.Stats.Samples != 7 {
		t.Fatalf("partial stats lost: %+v", snap.Result.Stats)
	}

	// The lone worker must be free again: a fresh job completes.
	seed2 := uint64(2001)
	g2 := newGate(seed2)
	close(g2.release)
	j2, err := s.Submit(distinctFormula(1), api.Request{Solver: solver.Config{Seed: seed2}})
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitDone(t, j2); snap.State != StateDone {
		t.Fatalf("post-cancel job: %+v", snap)
	}
}

// TestCancelQueuedJob: cancelling before a worker picks the job up
// finishes it instantly and the worker skips it.
func TestCancelQueuedJob(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, DefaultEngine: "svc-gate", CacheEntries: -1})
	seed := uint64(2100)
	g := newGate(seed)
	blocker, err := s.Submit(distinctFormula(0), api.Request{Solver: solver.Config{Seed: seed}})
	if err != nil {
		t.Fatal(err)
	}
	<-g.started

	seed2 := uint64(2101)
	newGate(seed2) // never released: must never be needed
	queued, err := s.Submit(distinctFormula(1), api.Request{Solver: solver.Config{Seed: seed2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if snap := waitDone(t, queued); snap.State != StateCancelled {
		t.Fatalf("queued cancel: %+v", snap)
	}
	close(g.release)
	waitDone(t, blocker)
}

// TestGracefulShutdownDrains: Shutdown with headroom lets queued and
// running jobs finish as done, not cancelled.
func TestGracefulShutdownDrains(t *testing.T) {
	s := NewServer(Config{Workers: 2, DefaultEngine: "svc-echo", CacheEntries: -1})
	var jobs []*Job
	for i := 0; i < 8; i++ {
		j, err := s.Submit(distinctFormula(i), api.Request{})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	for _, j := range jobs {
		if snap := j.Snapshot(); snap.State != StateDone {
			t.Errorf("job %s not drained: %+v", j.ID, snap.State)
		}
	}
	// Post-shutdown submits are rejected.
	if _, err := s.Submit(testFormula(), api.Request{}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit after shutdown: %v", err)
	}
}

// TestShutdownGraceExpiryCancelsStragglers: when the grace period runs
// out, the base context cancels in-flight work and Shutdown returns.
func TestShutdownGraceExpiryCancelsStragglers(t *testing.T) {
	s := NewServer(Config{Workers: 1, DefaultEngine: "svc-gate", CacheEntries: -1})
	seed := uint64(2200)
	g := newGate(seed)
	j, err := s.Submit(distinctFormula(0), api.Request{Solver: solver.Config{Seed: seed}})
	if err != nil {
		t.Fatal(err)
	}
	<-g.started

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	if snap := waitDone(t, j); snap.State != StateCancelled {
		t.Fatalf("straggler should be cancelled: %+v", snap)
	}
}

func TestQueueFullRejects(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1, DefaultEngine: "svc-gate", CacheEntries: -1})
	seed := uint64(2300)
	g := newGate(seed)
	if _, err := s.Submit(distinctFormula(0), api.Request{Solver: solver.Config{Seed: seed}}); err != nil {
		t.Fatal(err)
	}
	<-g.started
	seed2 := uint64(2301)
	newGate(seed2)
	if _, err := s.Submit(distinctFormula(1), api.Request{Solver: solver.Config{Seed: seed2}}); err != nil {
		t.Fatal(err) // fills the queue
	}
	seed3 := uint64(2302)
	newGate(seed3)
	if _, err := s.Submit(distinctFormula(2), api.Request{Solver: solver.Config{Seed: seed3}}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}
	gateMu.Lock()
	close(gates[seed2].release)
	gateMu.Unlock()
	close(g.release)
}

// TestCancelledQueuedJobsFreeBacklogSlots: a DELETE on a queued job
// must release its backlog slot immediately — tombstones must not
// wedge the queue into 503s while the gauge reads empty.
func TestCancelledQueuedJobsFreeBacklogSlots(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2, DefaultEngine: "svc-gate", CacheEntries: -1})
	blockSeed := uint64(2500)
	g := newGate(blockSeed)
	if _, err := s.Submit(distinctFormula(0), api.Request{Solver: solver.Config{Seed: blockSeed}}); err != nil {
		t.Fatal(err)
	}
	<-g.started

	// Fill the backlog, then cancel everything in it.
	var queued []*Job
	for i := 1; i <= 2; i++ {
		seed := uint64(2500 + i)
		newGate(seed)
		j, err := s.Submit(distinctFormula(i), api.Request{Solver: solver.Config{Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}
	seedFull := uint64(2510)
	newGate(seedFull)
	if _, err := s.Submit(distinctFormula(9), api.Request{Solver: solver.Config{Seed: seedFull}}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("backlog should be full: %v", err)
	}
	for _, j := range queued {
		if err := s.Cancel(j.ID); err != nil {
			t.Fatal(err)
		}
		if snap := waitDone(t, j); snap.State != StateCancelled {
			t.Fatalf("queued cancel: %+v", snap)
		}
	}

	// The slots are free again while the worker is still busy.
	seed2 := uint64(2511)
	g2 := newGate(seed2)
	j, err := s.Submit(distinctFormula(3), api.Request{Solver: solver.Config{Seed: seed2}})
	if err != nil {
		t.Fatalf("cancelled jobs should have freed their slots: %v", err)
	}
	close(g.release)
	close(g2.release)
	if snap := waitDone(t, j); snap.State != StateDone {
		t.Fatalf("post-cancel submission: %+v", snap)
	}
}

// TestCancelOnCacheHitJobIsSafe: a cache-hit job is terminal before it
// becomes visible, so DELETE on it is a no-op (and in particular can
// never double-close its done channel).
func TestCancelOnCacheHitJobIsSafe(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, DefaultEngine: "svc-echo"})
	j1, err := s.Submit(testFormula(), api.Request{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	for i := 0; i < 3; i++ {
		hit, err := s.Submit(testFormula(), api.Request{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Cancel(hit.ID); err != nil {
			t.Fatal(err)
		}
		if snap := hit.Snapshot(); snap.State != StateDone || !snap.CacheHit {
			t.Fatalf("cancel must not disturb a terminal cache-hit job: %+v", snap)
		}
	}
}

func TestSubmitRejectsBadEngineAndFormula(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, DefaultEngine: "svc-echo"})
	if _, err := s.Submit(testFormula(), api.Request{Engine: "no-such-engine"}); err == nil {
		t.Fatal("unknown engine must fail at submit")
	}
	if _, err := s.Submit(testFormula(), api.Request{Engine: "pre("}); err == nil {
		t.Fatal("malformed meta expression must fail at submit")
	}
	bad := &cnf.Formula{NumVars: 1, Clauses: []cnf.Clause{{cnf.Pos(9)}}}
	if _, err := s.Submit(bad, api.Request{}); err == nil ||
		!strings.Contains(err.Error(), "references variable") {
		t.Fatalf("invalid formula must fail at submit: %v", err)
	}
}

// TestQueuedJobTimeoutReapsWithoutWorker: a per-job deadline bounds
// the whole job — a job whose deadline expires while it is still in
// the backlog finishes cancelled right then, freeing its slot, without
// waiting for a worker.
func TestQueuedJobTimeoutReapsWithoutWorker(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, DefaultEngine: "svc-gate", CacheEntries: -1})
	blockSeed := uint64(2600)
	g := newGate(blockSeed)
	if _, err := s.Submit(distinctFormula(0), api.Request{Solver: solver.Config{Seed: blockSeed}}); err != nil {
		t.Fatal(err)
	}
	<-g.started // the lone worker is parked for the whole test

	seed := uint64(2601)
	newGate(seed) // never released, never started
	j, err := s.Submit(distinctFormula(1), api.Request{
		Timeout: 100 * time.Millisecond,
		Solver:  solver.Config{Seed: seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitDone(t, j)
	if snap.State != StateCancelled || !errors.Is(snap.Err, context.DeadlineExceeded) {
		t.Fatalf("queued timeout: state=%v err=%v", snap.State, snap.Err)
	}
	if queued, _ := s.Counts(); queued != 0 {
		t.Fatalf("reaped job should free its backlog slot, queued=%d", queued)
	}
	close(g.release)
}

// TestPerJobTimeout: a job deadline flows into the engine context.
func TestPerJobTimeout(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, DefaultEngine: "svc-gate", CacheEntries: -1})
	seed := uint64(2400)
	newGate(seed) // never released; only the deadline can end it
	j, err := s.Submit(distinctFormula(0), api.Request{
		Timeout: 150 * time.Millisecond,
		Solver:  solver.Config{Seed: seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitDone(t, j)
	if snap.State != StateCancelled || !errors.Is(snap.Err, context.DeadlineExceeded) {
		t.Fatalf("timeout job: state=%v err=%v", snap.State, snap.Err)
	}
}

// TestJobTableRetention pins the retention bound: a live job at the
// head of the table pauses eviction, and once it finishes the oldest
// terminal jobs go first.
func TestJobTableRetention(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, CacheEntries: -1})
	s.mu.Lock()
	s.maxJobs = 3
	s.mu.Unlock()
	ids := func() []string {
		var out []string
		for _, j := range s.Jobs() {
			out = append(out, j.ID)
		}
		return out
	}

	seed := uint64(2700)
	g := newGate(seed)
	head, err := s.Submit(distinctFormula(0), api.Request{Engine: "svc-gate", Solver: solver.Config{Seed: seed}})
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	for i := 1; i <= 3; i++ {
		j, err := s.Submit(distinctFormula(i), api.Request{Engine: "svc-echo"})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
	}
	if got := ids(); !reflect.DeepEqual(got, []string{"j1", "j2", "j3", "j4"}) {
		t.Fatalf("with a live head the table holds %v, want every job", got)
	}

	close(g.release)
	waitDone(t, head)
	if _, err := s.Submit(distinctFormula(4), api.Request{Engine: "svc-echo"}); err != nil {
		t.Fatal(err)
	}
	if got := ids(); !reflect.DeepEqual(got, []string{"j3", "j4", "j5"}) {
		t.Fatalf("after the head finished the table holds %v, want the newest 3", got)
	}
	if _, err := s.Job("j1"); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("evicted job lookup: %v", err)
	}
}
