package obs

import (
	"context"
	"strings"
	"testing"
)

// TestUntracedContextIsFree pins the zero-cost-when-disabled
// contract: starting a span on an untraced context allocates nothing
// and returns the context unchanged, and every method on the nil span
// is a no-op.
func TestUntracedContextIsFree(t *testing.T) {
	ctx := context.Background()
	sp, out := StartSpan(ctx, "x")
	if sp != nil {
		t.Fatalf("StartSpan on untraced ctx returned a span")
	}
	if out != ctx {
		t.Fatalf("StartSpan on untraced ctx returned a new context")
	}
	allocs := testing.AllocsPerRun(100, func() {
		sp, _ := StartSpan(ctx, "x")
		sp.SetAttr("k", "v")
		sp.Point(TrajPoint{Round: 1})
		sp.Finish()
	})
	if allocs != 0 {
		t.Fatalf("untraced span site allocates %v times per call, want 0", allocs)
	}
}

func TestSpanTree(t *testing.T) {
	tr := NewTrace("")
	if len(tr.ID()) != 16 {
		t.Fatalf("trace id %q, want 16 hex digits", tr.ID())
	}
	tr.SetJob("j1")
	root := tr.Root("job")
	ctx := ContextWithSpan(context.Background(), root)

	sp, ctx2 := StartSpan(ctx, "pipeline.simplify")
	sp.SetAttr("vars", "20")
	sp.Finish()
	child, _ := StartSpan(ctx2, "mc.check")
	child.Point(TrajPoint{Round: 1, Samples: 100, Mean: 0.5, StdErr: 0.1, Dist: 2})
	child.Finish()
	root.Finish()

	j := tr.JSON()
	if j.TraceID != tr.ID() || j.Job != "j1" {
		t.Fatalf("trace header = %q/%q", j.TraceID, j.Job)
	}
	if len(j.Spans) != 1 || j.Spans[0].Name != "job" {
		t.Fatalf("want one root span 'job', got %+v", j.Spans)
	}
	simp := j.Find("pipeline.simplify")
	if simp == nil || len(simp.Attrs) != 1 || simp.Attrs[0].Key != "vars" {
		t.Fatalf("simplify span missing or attr lost: %+v", simp)
	}
	check := j.Find("mc.check")
	if check == nil || len(check.Traj) != 1 || check.Traj[0].Dist != 2 {
		t.Fatalf("check span trajectory lost: %+v", check)
	}
	// mc.check was started from the context carrying simplify, so it
	// nests under it.
	if len(simp.Children) != 1 || simp.Children[0] != check {
		t.Fatalf("mc.check not nested under simplify")
	}

	var b strings.Builder
	WriteTree(&b, j)
	for _, want := range []string{"trace " + tr.ID(), "job j1", "pipeline.simplify", "vars=20", "snr[1 pts]"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("text tree missing %q:\n%s", want, b.String())
		}
	}
}

// TestTrajectoryDecimation pins the bounded-memory contract of Point:
// arbitrarily many round boundaries keep at most maxTrajPoints
// points, uniformly thinned, with the capture grid still anchored at
// round 1 and the stored rounds strictly increasing.
func TestTrajectoryDecimation(t *testing.T) {
	tr := NewTrace("")
	sp := tr.Root("check")
	const rounds = 10_000
	for i := 1; i <= rounds; i++ {
		sp.Point(TrajPoint{Round: i, Samples: int64(i) * 64})
	}
	sp.Finish()
	traj := tr.JSON().Spans[0].Traj
	if len(traj) == 0 || len(traj) > maxTrajPoints {
		t.Fatalf("trajectory has %d points, want 1..%d", len(traj), maxTrajPoints)
	}
	if traj[0].Round != 1 {
		t.Fatalf("first kept point is round %d, want 1", traj[0].Round)
	}
	for i := 1; i < len(traj); i++ {
		if traj[i].Round <= traj[i-1].Round {
			t.Fatalf("rounds not increasing at %d: %d then %d", i, traj[i-1].Round, traj[i].Round)
		}
	}
}

func TestGraft(t *testing.T) {
	router := NewTrace("abcd")
	rs := router.Root("router.submit")
	rs.Finish()
	replica := NewTrace("abcd")
	job := replica.Root("job")
	job.Finish()

	merged := router.JSON()
	merged.Graft(replica.JSON())
	if len(merged.Spans) != 1 {
		t.Fatalf("graft grew extra roots: %+v", merged.Spans)
	}
	if merged.Find("job") == nil {
		t.Fatalf("replica root not grafted under router root")
	}
}

func TestRing(t *testing.T) {
	r := NewRing(2)
	for _, id := range []string{"a", "b", "c"} {
		tr := NewTrace("")
		tr.SetJob(id)
		r.Add(tr)
	}
	if r.ByJob("a") != nil {
		t.Fatalf("oldest trace survived a full ring")
	}
	if tr := r.ByJob("c"); tr == nil || tr.Job() != "c" {
		t.Fatalf("newest trace not found")
	}
	recent := r.Recent(10)
	if len(recent) != 2 || recent[0].Job() != "c" || recent[1].Job() != "b" {
		t.Fatalf("Recent order wrong: %v", recent)
	}
}
