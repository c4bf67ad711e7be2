package main

import (
	"math"
	"sort"
	"sync"
)

// tailPerMille picks the tail percentile a run of n jobs can support:
// the highest of p99, p90, p75 with at least ten jobs beyond it, and
// p50 when even p75 has fewer. Percentiles are in per-mille so the
// "ten beyond" test is exact integer arithmetic.
func tailPerMille(n int) int {
	for _, pm := range []int{990, 900, 750} {
		if n*(1000-pm) >= 10*1000 {
			return pm
		}
	}
	return 500
}

// percentile returns the nearest-rank per-mille percentile of the
// latencies ms, where each of the failed jobs counts as slower than
// every answered one. ok is false when the rank lands on a failed job:
// that job has no latency to report.
func percentile(ms []float64, failed, pm int) (v float64, ok bool) {
	n := len(ms) + failed
	if n == 0 {
		return 0, false
	}
	rank := (pm*n + 999) / 1000 // ceil(pm/1000 · n), 1-based
	if rank < 1 {
		rank = 1
	}
	if rank > len(ms) {
		return 0, false
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	return sorted[rank-1], true
}

// quartiles returns the first quartile, median and third quartile of
// v by the method of Python's statistics.quantiles(v, n=4) (the
// default "exclusive" interpolation), which is how the benchmark's
// run-to-run spread is judged. A single value is all three quartiles.
func quartiles(v []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := len(d) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median is the middle value of v (the mean of the middle two for an
// even count).
func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// tally accumulates named per-layer observations from concurrent
// clients: a sum and a count per name.
type tally struct {
	mu  sync.Mutex
	acc map[string]*[2]float64
}

func newTally() *tally { return &tally{acc: make(map[string]*[2]float64)} }

func (t *tally) add(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.acc[name]
	if a == nil {
		a = new([2]float64)
		t.acc[name] = a
	}
	a[0] += v
	a[1]++
}

func (t *tally) sum(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.acc[name]; a != nil {
		return a[0]
	}
	return 0
}

// mean is the average observation under name, 0 when there is none.
func (t *tally) mean(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.acc[name]; a != nil && a[1] > 0 {
		return a[0] / a[1]
	}
	return 0
}

// ratio is num/den, 0 when den is 0 (a layer the workload never reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
