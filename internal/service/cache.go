package service

import (
	"container/list"
	"strconv"
	"sync"

	"repro/internal/cnf"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/verdictstore"
)

// verdictCache is the service's LRU verdict cache. Keys are
// (engine expression, solver config, canonical formula fingerprint):
// the fingerprint deduplicates renamed/reordered-literal resubmissions
// of one clause set (see cnf.Canonicalize), while the engine and
// config keep every entry a faithful replay of a solve the requester's
// own parameters would have run — hit responses return the first
// solve's Result verbatim, stats and wall time included. A count's key
// also holds the declared variable count (verdictstore.Fingerprint).
//
// Correctness argument: only definitive verdicts are stored. SAT and
// UNSAT are properties of the clause set, invariant under the variable
// renaming the fingerprint mods out, so replaying them for an
// equivalent formula is sound (models are carried in canonical variable
// space and translated through each requester's own renaming). The
// config belongs in the key because the statistical engines'
// "definitive" is confidence-parameterized: a SAT decided at theta=0.1
// with a 1k budget is a far weaker claim than one at theta=10 with
// 4M samples, and replaying the former to the latter would launder a
// client's lax confidence choice into everyone else's answers (it also
// keeps model-recovering and model-less entries distinct).
// UNKNOWN is different in kind: it is a statement about one run — a
// budget ran out, a context was cancelled, an SNR gate refused to
// certify — not about the formula. A later submission with a higher
// budget, a different engine, or plain different luck can legitimately
// decide the instance, so caching UNKNOWN would turn a transient
// shortfall into a sticky wrong answer. Store never admits it.
//
// The cache is optionally two-tiered: an LRU miss consults the durable
// verdict store (internal/verdictstore) and, on a hit there, promotes
// the record into the LRU. Puts write through to both tiers. Both
// tiers hold one shape, the store's Record with its model in canonical
// space, under the store's key (verdictstore.TaskKey), and share its
// UNKNOWN exclusion, so the correctness argument above covers both
// tiers; what the store adds is survival across process restarts. The
// store holds only file offsets, so the LRU's capacity bounds the
// records in memory. The cache alone counts lookups: hits (LRU),
// storeHits (store hits on LRU misses) and misses (of both tiers)
// partition them.
type verdictCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // of *verdictstore.Record; front = most recently used
	entries map[string]*list.Element
	store   *verdictstore.Store // optional durable tier; nil = LRU only

	hits, storeHits, misses, evictions int64
}

// newVerdictCache returns a cache holding up to capacity entries over
// an optional durable store tier; capacity <= 0 disables the LRU
// (lookups fall straight through to the store, which may itself be
// nil, in which case every lookup misses and stores drop).
func newVerdictCache(capacity int, store *verdictstore.Store) *verdictCache {
	return &verdictCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
		store:   store,
	}
}

// enabled reports whether any tier stores anything at all (it gates
// whether Submit bothers to canonicalize).
func (c *verdictCache) enabled() bool { return c.cap > 0 || c.store != nil }

// get returns the cached Result for (engine, config, canonical
// formula), with the stored model translated into the requester's
// variable space; a nil canon, a job no tier serves, misses without
// counting. An LRU miss falls through to the durable store, read
// outside the lock so a disk read never stalls LRU hits; a store hit is
// promoted into the LRU. Each probed tier records a hit-tagged child
// span under sp (nil sp: untraced).
func (c *verdictCache) get(sp *obs.Span, task solver.Task, engine, cfg string, canon *cnf.Canonical) (solver.Result, bool) {
	if canon == nil {
		return solver.Result{}, false
	}
	key := verdictstore.TaskKey(string(task), engine, cfg,
		verdictstore.Fingerprint(string(task), canon.Fingerprint(), canon.NumVars()))
	lru := sp.StartChild("cache.lru")
	var hit *verdictstore.Record
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.order.MoveToFront(el)
		hit = el.Value.(*verdictstore.Record)
	}
	c.mu.Unlock()
	lru.SetAttr("hit", strconv.FormatBool(hit != nil))
	lru.Finish()
	if hit != nil {
		return replay(hit, canon), true
	}
	rec, found := verdictstore.Record{}, false
	if c.store != nil {
		st := sp.StartChild("cache.store")
		rec, found = c.store.Get(key)
		st.SetAttr("hit", strconv.FormatBool(found))
		st.Finish()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !found {
		c.misses++
		return solver.Result{}, false
	}
	c.storeHits++
	c.insertLocked(key, &rec)
	return replay(&rec, canon), true
}

// replay returns rec's verdict with its canonical model translated into
// the requester's variable space; everything else replays verbatim.
func replay(rec *verdictstore.Record, canon *cnf.Canonical) solver.Result {
	res := rec.Result
	res.Assignment = canon.FromCanonical(rec.Result.Assignment)
	return res
}

// put stores a definitive result in both tiers; a nil canon stores
// nothing. UNKNOWN (or an errored solve — the caller never offers one)
// is rejected: see the type comment.
func (c *verdictCache) put(task solver.Task, engine, cfg string, canon *cnf.Canonical, res solver.Result) {
	if canon == nil || !res.Status.Definitive() {
		return
	}
	res.Assignment = canon.ToCanonical(res.Assignment)
	rec := &verdictstore.Record{
		Engine: engine, ConfigKey: cfg, Task: string(task), Result: res,
		Fingerprint: verdictstore.Fingerprint(string(task), canon.Fingerprint(), canon.NumVars()),
	}
	c.mu.Lock()
	c.insertLocked(rec.Key(), rec)
	c.mu.Unlock()
	if c.store != nil {
		// Best-effort write-through: a full disk must not fail the job
		// whose verdict was just earned — the LRU still has it, and the
		// next process can re-earn it.
		_ = c.store.Put(*rec)
	}
}

// insertLocked installs rec under key in the LRU tier (a no-op when the
// LRU is disabled). Caller holds c.mu.
func (c *verdictCache) insertLocked(key string, rec *verdictstore.Record) {
	if c.cap <= 0 {
		return
	}
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value = rec
		return
	}
	c.entries[key] = c.order.PushFront(rec)
	for len(c.entries) > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*verdictstore.Record).Key())
		c.evictions++
	}
}

// stats returns (LRU hits, store hits, misses, evictions, live entries).
func (c *verdictCache) stats() (hits, storeHits, misses, evictions, entries int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.storeHits, c.misses, c.evictions, int64(len(c.entries))
}
