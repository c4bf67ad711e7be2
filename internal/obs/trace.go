// Package obs is the solve tracer: a lightweight span model (trace ID
// + parent + name + start/duration + key=val attrs) carried through
// context the same way solver.ProgressFunc is, so one solve yields one
// tree of spans spanning router → service → pipeline → engine. The
// engine check spans additionally carry a sampled SNR trajectory —
// per-round (samples, mean S_N, stderr, distance-to-threshold) points
// captured at convergence-round boundaries — because E[S_N] =
// K'·σ^(2nm) collapsing into the noise floor is *why* a check returns
// UNKNOWN, and the trajectory is the only artifact that shows it.
//
// Cost contract: when no span rides the context, StartSpan returns
// (nil, ctx) without allocating, and every Span method is safe on a
// nil receiver, so an untraced solve pays one context lookup per
// span site — never anything per sample. Span sites sit at job,
// stage, and check/round boundaries only.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Attr is one key=val annotation on a span. Attrs keep insertion
// order; keys are not deduplicated (span sites set each key once).
type Attr struct {
	Key string `json:"k"`
	Val string `json:"v"`
}

// TrajPoint is one sampled point of a check's SNR trajectory,
// captured at a merged convergence-round boundary.
type TrajPoint struct {
	// Round is the 1-based convergence-round index at the boundary
	// where the point was captured.
	Round int `json:"round"`
	// Samples is the cumulative sample count after the round merged.
	Samples int64 `json:"samples"`
	// Mean and StdErr are the running estimate of E[S_N] and its
	// standard error at the boundary.
	Mean   float64 `json:"mean"`
	StdErr float64 `json:"stderr"`
	// Dist is the distance to the engine's decision threshold in
	// standard-error units: mean/stderr − θ. Positive means the
	// estimate clears the SAT line; a trajectory pinned far below
	// zero with stderr still shrinking is the signature of an
	// SNR-bound UNKNOWN.
	Dist float64 `json:"dist"`
}

// maxTrajPoints bounds the trajectory kept per span. When the cap is
// reached the trajectory is decimated in place (every other point
// dropped, capture stride doubled), so long checks keep a uniformly
// thinned trajectory whose tail is always current.
const maxTrajPoints = 256

// Span is one timed operation inside a Trace. Exported fields are
// written once at creation; mutation (End, attrs, trajectory) goes
// through methods, which lock the owning trace so a snapshot of a
// still-running trace is race-free.
type Span struct {
	tr *Trace

	ID     int
	Parent int // 0 for a root span
	Name   string
	Start  time.Time

	end   time.Time
	attrs []Attr
	traj  []TrajPoint

	trajSeen   int64 // points offered via Point
	trajStride int64 // keep every stride-th offered point
}

// Trace accumulates the spans of one solve. All span mutation locks
// the trace, so it may be snapshotted (JSON) while spans are live.
type Trace struct {
	mu     sync.Mutex
	id     string
	job    string
	spans  []*Span
	nextID int
}

// NewTrace builds an empty trace. An empty id draws a fresh random
// 16-hex-digit trace ID; a non-empty id adopts a propagated one (the
// X-NBL-Trace fleet hop).
func NewTrace(id string) *Trace {
	if id == "" {
		id = NewTraceID()
	}
	return &Trace{id: id}
}

// NewTraceID returns a fresh random 16-hex-digit trace ID.
func NewTraceID() string {
	var b [8]byte
	rand.Read(b[:]) //nolint:errcheck // crypto/rand.Read never fails
	return hex.EncodeToString(b[:])
}

// ID returns the trace ID.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// SetJob tags the trace with the job id it belongs to (set by the
// service once the id is allocated).
func (t *Trace) SetJob(job string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.job = job
	t.mu.Unlock()
}

// Job returns the job id the trace is tagged with.
func (t *Trace) Job() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.job
}

// Root starts a new root span (no parent) on the trace.
func (t *Trace) Root(name string) *Span {
	if t == nil {
		return nil
	}
	return t.start(name, 0)
}

func (t *Trace) start(name string, parent int) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s := &Span{tr: t, ID: t.nextID, Parent: parent, Name: name, Start: time.Now()}
	t.spans = append(t.spans, s)
	return s
}

// StartChild starts a child span under s. Nil-safe: returns nil when
// the receiver is nil, so untraced call sites cost nothing downstream.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.start(name, s.ID)
}

// Finish stamps the span's end time (idempotent: the first call wins).
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.tr.mu.Unlock()
}

// SetAttr appends a key=val annotation.
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
	s.tr.mu.Unlock()
}

// Point offers one SNR trajectory point. Points beyond the
// maxTrajPoints budget are decimated: the kept set stays uniformly
// spaced over the whole check and the stride doubles, so the call
// stays O(1) amortized and the span's memory is bounded no matter how
// many rounds a check runs.
func (s *Span) Point(p TrajPoint) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.trajStride == 0 {
		s.trajStride = 1
	}
	keep := s.trajSeen%s.trajStride == 0
	s.trajSeen++
	if !keep {
		return
	}
	s.traj = append(s.traj, p)
	if len(s.traj) >= maxTrajPoints {
		half := s.traj[:0]
		for i := 0; i < len(s.traj); i += 2 {
			half = append(half, s.traj[i])
		}
		s.traj = half
		s.trajStride *= 2
	}
}
