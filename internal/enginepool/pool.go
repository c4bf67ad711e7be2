// Package enginepool is the engine lease pool: the first-class
// lifecycle for warm solver instances, which began as a per-worker
// warm table inside nblserve.
//
// Why a pool, and why here: the noise-based-logic engines pay a large
// fixed cost per construction — 2·n·m noise sources per worker bank,
// evaluator scratch, block buffers — that is pure overhead when an
// instance lives and dies with one Solve. The engines' Reset re-targets
// that state at a new formula and seed of the same (n, m) geometry,
// with results bit-identical to a cold construction. The pool turns
// that primitive into an architecture every layer shares: pipeline
// component fan-out, portfolio members, and service workers all lease
// instead of build, so any repeated-geometry traffic anywhere in the
// process warms up.
//
// Lease lifecycle (the state machine documented in DESIGN.md):
//
//	Acquire(expr, cfg, f)
//	   ├─ idle instance under (expr, cfg.Key() seedless, n, m) → pop, Reset(cfg)
//	   │     ├─ engine built   → WARM HIT   (banks/buffers reused)
//	   │     └─ engine unbuilt → COLD MISS  (the Solve builds it)
//	   └─ none → solver.NewWith(expr, cfg) → COLD MISS
//	... exclusive use: Lease.Solve ...
//	Release
//	   ├─ solver implements solver.Reusable → back to idle (LRU refresh)
//	   │     └─ idle > capacity → evict least recently released
//	   └─ not reusable → dropped
//
// Only the warm sampling engines (solver.Warm: mc, rtw, sbl) are
// Reusable. Everything else — the search engines, the counters and the
// pre and portfolio shells, whose warmth lives in the engines they
// lease from this same pool — is built on every Acquire and dropped on
// Release, so no idle slot holds an instance with nothing to reuse.
//
// The key leaves out the seed: a warm engine's state depends on its
// formula's geometry and the other knobs, not on the seed. Reset hands
// the instance its lease's seed, and every check re-derives its noise
// streams from (seed, check sequence). So a stream of jobs that each
// carry their own seed still leases warm.
//
// Correctness: a lease is exclusive — an instance is either idle in
// the pool or held by exactly one caller, never both — and the Solve
// re-targets the engine at the lease's formula and seed, restoring
// fresh-construction state (mc restarts checkSeq, rtw reseeds its
// bank, sbl rewinds its carriers), so a warm Solve returns bit-for-bit
// the Result a cold instance would. The conformance suite asserts this
// for every pooled engine, across seeds. Capacity bounds only idle
// instances, so Acquire never blocks: concurrent demand beyond the cap
// simply constructs cold.
package enginepool

import (
	"container/list"
	"context"
	"sort"
	"sync"

	"repro/internal/cnf"
	"repro/internal/solver"
)

// DefaultCapacity bounds the shared Default pool. Each warm mc entry
// pins per-worker banks and block scratch sized by its geometry (~2 MiB
// at SATLIB scale, the block budget of hyperspace.BlockSize), so the
// cap is a memory bound as much as an LRU tuning knob.
const DefaultCapacity = 32

// Default is the process-wide pool every layer leases from: pipeline
// component fan-out, portfolio members, and the nblserve workers. One
// shared pool is the point — a pre(mc) solve on a service worker warms
// the same mc instances a bare-mc portfolio member will lease next.
var Default = New(DefaultCapacity)

// key identifies a reuse class: idle instances are interchangeable
// exactly when they were built from the same engine expression and
// Config, up to the seed, and target the same (n, m) geometry (bank
// and scratch shapes are pure functions of these).
type key struct {
	expr, cfg string
	n, m      int
}

// entry is one idle pooled instance.
type entry struct {
	key key
	s   solver.Solver
	el  *list.Element // position in the pool's LRU list
}

// Pool is a concurrency-safe lease pool over the solver registry.
type Pool struct {
	mu   sync.Mutex
	cap  int
	idle map[key][]*entry // per-key stack; newest released at the top
	lru  *list.List       // *entry; front = least recently released
	size int              // total idle entries across keys

	hits, misses, evictions int64
}

// New returns a pool keeping up to capacity idle instances (capacity
// <= 0 disables pooling: every Acquire constructs, every Release
// drops).
func New(capacity int) *Pool {
	return &Pool{cap: capacity, idle: make(map[key][]*entry), lru: list.New()}
}

// Lease is an exclusively held solver instance, bound to the formula
// and Config it was acquired for. Release it when the solve finishes
// — leases are not reentrant and must not be shared.
type Lease struct {
	pool     *Pool
	key      key
	s        solver.Solver
	f        *cnf.Formula
	warm     bool
	released bool
}

// Acquire leases a solver for expr/cfg targeting formula f. An idle
// instance of the same (expr, seedless cfg, geometry) class is handed
// cfg through Reset and returned, warm when its engine is built;
// otherwise a fresh instance is constructed (any registry error
// surfaces here, exactly as solver.NewWith would).
func (p *Pool) Acquire(expr string, cfg solver.Config, f *cnf.Formula) (*Lease, error) {
	seedless := cfg
	seedless.Seed = 0
	k := key{expr: expr, cfg: seedless.Key(), n: f.NumVars, m: f.NumClauses()}

	p.mu.Lock()
	var e *entry
	if stack := p.idle[k]; len(stack) > 0 {
		e = stack[len(stack)-1]
		p.idle[k] = stack[:len(stack)-1]
		if len(p.idle[k]) == 0 {
			delete(p.idle, k)
		}
		p.lru.Remove(e.el)
		p.size--
	}
	p.mu.Unlock()

	if e != nil {
		warm := e.s.(solver.Reusable).Reset(cfg)
		p.mu.Lock()
		if warm {
			p.hits++
		} else {
			p.misses++
		}
		p.mu.Unlock()
		return &Lease{pool: p, key: k, s: e.s, f: f, warm: warm}, nil
	}

	s, err := solver.NewWith(expr, cfg)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.misses++
	p.mu.Unlock()
	return &Lease{pool: p, key: k, s: s, f: f}, nil
}

// Solve runs the leased solver on the formula the lease was acquired
// for. Taking no formula parameter is deliberate: the pool key
// describes Acquire's formula, so solving anything else would file the
// instance under a lying key.
func (l *Lease) Solve(ctx context.Context) (solver.Result, error) {
	return l.s.Solve(ctx, l.f)
}

// Warm reports whether this lease took an idle instance with a built
// engine, whose banks and buffers the Solve reuses.
func (l *Lease) Warm() bool { return l.warm }

// Release returns the instance to the pool (Reusable solvers) or drops
// it (all others). Idempotent; the lease must not be used after.
func (l *Lease) Release() {
	if l.released {
		return
	}
	l.released = true
	l.pool.release(l)
}

func (p *Pool) release(l *Lease) {
	if _, ok := l.s.(solver.Reusable); !ok || p.cap <= 0 {
		return // nothing worth pooling; let it be collected
	}
	e := &entry{key: l.key, s: l.s}
	p.mu.Lock()
	defer p.mu.Unlock()
	e.el = p.lru.PushBack(e)
	p.idle[l.key] = append(p.idle[l.key], e)
	p.size++
	for p.size > p.cap {
		front := p.lru.Front()
		p.lru.Remove(front)
		old := front.Value.(*entry)
		stack := p.idle[old.key]
		for i, cand := range stack {
			if cand == old {
				p.idle[old.key] = append(stack[:i], stack[i+1:]...)
				break
			}
		}
		if len(p.idle[old.key]) == 0 {
			delete(p.idle, old.key)
		}
		p.size--
		p.evictions++
	}
}

// Stats is a point-in-time snapshot of the pool counters.
type Stats struct {
	// Hits counts Acquires served by an idle instance with a built
	// engine; Misses counts the rest (no idle instance, an idle one that
	// never built its engine, or a non-reusable engine).
	Hits, Misses int64
	// Evictions counts idle instances dropped by the LRU capacity bound.
	Evictions int64
	// Size and Capacity describe the idle set.
	Size, Capacity int
	// Occupancy maps engine expression -> idle instances. Cardinality
	// is bounded by Size (<= Capacity), so exposing it as metric labels
	// is safe.
	Occupancy map[string]int
}

// Stats returns the current counters and per-expression occupancy.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	occ := make(map[string]int)
	for k, stack := range p.idle {
		occ[k.expr] += len(stack)
	}
	return Stats{
		Hits: p.hits, Misses: p.misses, Evictions: p.evictions,
		Size: p.size, Capacity: p.cap, Occupancy: occ,
	}
}

// Expressions returns the sorted engine expressions with idle
// instances (a stable iteration order for metrics rendering).
func (s Stats) Expressions() []string {
	out := make([]string, 0, len(s.Occupancy))
	for e := range s.Occupancy {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}
