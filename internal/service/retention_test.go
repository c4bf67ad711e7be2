package service

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/solver"
)

// TestTerminalJobsKeepOnlyTheirAnswer drives more jobs than the trace
// ring holds through every path to a terminal state — solved, cache-hit
// replay, failed, cancelled while queued, cancelled while running — and
// pins what a finished job keeps: its answer, and neither its span tree
// nor its solve context. The ring alone serves the newest traceRing
// jobs' trees, and Cancel on a terminal job changes nothing.
func TestTerminalJobsKeepOnlyTheirAnswer(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, DefaultEngine: "svc-echo"})
	var finished []*Job // in completion order
	want := map[*Job]State{}
	submit := func(i int, engine string, seed uint64) *Job {
		t.Helper()
		j, err := s.Submit(distinctFormula(i), api.Request{Engine: engine, Solver: solver.Config{Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	finish := func(j *Job, state State) {
		t.Helper()
		if snap := waitDone(t, j); snap.State != state {
			t.Fatalf("job %s: state %s, want %s (%+v)", j.ID, snap.State, state, snap)
		}
		finished = append(finished, j)
		want[j] = state
	}

	const rounds = 50 // six jobs a round
	for r := range rounds {
		seed := uint64(1_000_000 + 4*r)
		finish(submit(r, "", 0), StateDone)
		hit := submit(r, "", 0)
		if !hit.Snapshot().CacheHit {
			t.Fatalf("resubmission %s missed the cache", hit.ID)
		}
		finish(hit, StateDone)
		finish(submit(r, "svc-gate", seed), StateFailed) // no gate for the seed

		g := newGate(seed + 1)
		running := submit(r, "svc-gate", seed+1)
		<-g.started
		if err := s.Cancel(running.ID); err != nil {
			t.Fatal(err)
		}
		finish(running, StateCancelled)

		g = newGate(seed + 2)
		blocker := submit(r, "svc-gate", seed+2)
		<-g.started
		newGate(seed + 3) // never started: the job is cancelled in the backlog
		queued := submit(r, "svc-gate", seed+3)
		if err := s.Cancel(queued.ID); err != nil {
			t.Fatal(err)
		}
		finish(queued, StateCancelled)
		close(g.release)
		finish(blocker, StateDone)
	}
	if len(finished) <= traceRing {
		t.Fatalf("drove %d jobs, want more than the %d-trace ring", len(finished), traceRing)
	}

	for i, j := range finished {
		var held []string
		j.mu.Lock()
		for what, ok := range map[string]bool{
			"formula": j.f != nil, "canonical form": j.canon != nil,
			"trace": j.trace != nil, "root span": j.root != nil, "queue span": j.queueSpan != nil,
			"solve context": j.ctx != nil, "cancel func": j.cancel != nil,
		} {
			if ok {
				held = append(held, what)
			}
		}
		j.mu.Unlock()
		if len(held) > 0 {
			slices.Sort(held)
			t.Fatalf("terminal job %s (%s) still holds its %v", j.ID, want[j], held)
		}

		before := j.Snapshot()
		if err := s.Cancel(j.ID); err != nil {
			t.Fatalf("cancel terminal job %s: %v", j.ID, err)
		}
		if after := j.Snapshot(); !reflect.DeepEqual(after, before) {
			t.Fatalf("cancel changed terminal job %s:\n%+v\nwant\n%+v", j.ID, after, before)
		}

		tr := s.Trace(j.ID)
		if i < len(finished)-traceRing {
			if tr != nil {
				t.Errorf("job %s finished %d jobs before the newest, yet the ring still holds its trace",
					j.ID, len(finished)-i)
			}
			continue
		}
		if tr == nil || len(tr.Spans) != 1 || tr.Spans[0].Name != "job" {
			t.Fatalf("job %s is among the newest %d, but the ring serves %+v", j.ID, traceRing, tr)
		}
		if got := tr.Spans[0].Attrs; !slices.Contains(got, obs.Attr{Key: "state", Val: string(want[j])}) {
			t.Errorf("job %s trace attrs %v, want state %s", j.ID, got, want[j])
		}
	}
}
