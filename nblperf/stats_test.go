package main

import (
	"fmt"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Reference values from Python's statistics.quantiles(v, n=4).
	for _, tc := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.v)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.v, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestTailSelection(t *testing.T) {
	for _, tc := range []struct{ n, pm int }{
		{39, 500}, {40, 750}, {99, 750}, {100, 900}, {999, 900}, {1000, 990}, {100000, 990},
	} {
		if got := tailPerMille(tc.n); got != tc.pm {
			t.Errorf("tailPerMille(%d) = %d, want %d", tc.n, got, tc.pm)
		}
	}
	// Every workload's declared tail is the one its job count selects.
	for _, w := range workloads {
		if got := tailPerMille(w.jobs); got != w.tailPM {
			t.Errorf("%s: %d jobs select p%g, declared p%g", w.name, w.jobs, float64(got)/10, float64(w.tailPM)/10)
		}
	}
}

func TestPercentileCountsFailuresAsMissingTheTail(t *testing.T) {
	ms := make([]float64, 36)
	for i := range ms {
		ms[i] = float64(36 - i) // unsorted on purpose
	}
	// 36 answered + 4 failed = 40 jobs: p90 is rank 36, the slowest
	// answered job; p99 is rank 40, a failed job with no latency.
	if v, ok := percentile(ms, 4, 900); !ok || v != 36 {
		t.Errorf("p90 = %v, %v; want 36, true", v, ok)
	}
	if _, ok := percentile(ms, 4, 990); ok {
		t.Error("p99 landed on an answered job, want a failed one")
	}
	if v, ok := percentile(ms, 4, 500); !ok || v != 20 {
		t.Errorf("p50 = %v, %v; want 20, true", v, ok)
	}
	if _, ok := percentile(nil, 3, 500); ok {
		t.Error("p50 of an all-failed pass reported a latency")
	}
}

func TestPassCountsRefusedAndTimedOutAsFailed(t *testing.T) {
	p := &pass{}
	p.add(10, true, nil)
	p.add(12, false, nil)
	p.add(5, false, fmt.Errorf("%w: queue full", errRefused))
	p.add(30000, false, fmt.Errorf("job j9 ended cancelled: context deadline exceeded"))
	p.add(8, false, errUndecided)
	p.add(9, true, fmt.Errorf("%w: verdict flipped", errWrong))
	if p.attempted() != 6 || p.failed != 3 || p.wrong != 1 || p.decided != 1 {
		t.Fatalf("attempted %d failed %d wrong %d decided %d; want 6, 3, 1, 1",
			p.attempted(), p.failed, p.wrong, p.decided)
	}
	r := p.result(0)
	if r.Correct || r.Failed != 4 || r.Attempted != 6 {
		t.Errorf("result = %+v; want incorrect, 4 failed of 6", r)
	}
	// Only the two answered jobs have latencies; p50 (rank 3 of 6)
	// already lands on a failed job.
	if _, ok := percentile(p.ms, p.failed+p.wrong, 500); ok {
		t.Error("p50 should be missed when 4 of 6 jobs failed")
	}
}

func TestTally(t *testing.T) {
	tl := newTally()
	tl.add("x", 1)
	tl.add("x", 3)
	if tl.sum("x") != 4 || tl.mean("x") != 2 || tl.mean("absent") != 0 {
		t.Errorf("sum %v mean %v absent %v", tl.sum("x"), tl.mean("x"), tl.mean("absent"))
	}
	if ratio(1, 0) != 0 || ratio(3, 2) != 1.5 {
		t.Error("ratio")
	}
}
