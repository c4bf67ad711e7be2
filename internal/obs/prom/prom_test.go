package prom

import (
	"math"
	"strings"
	"testing"
)

// The golden tests pin the exposition text byte for byte: scrapers and
// the CI smokes grep these lines, so any change to them is a change to
// the metrics contract.

func TestScalarFamilies(t *testing.T) {
	var b strings.Builder
	Counter(&b, "jobs_total", "Jobs finished.", 7)
	Gauge(&b, "queue_depth", "Jobs waiting.", -2)
	GaugeFloat(&b, "ratio", "A share.", 0.25)
	GaugeFloat(&b, "ceiling", "No upper bound.", math.Inf(1))
	GaugeFloat(&b, "floor", "No lower bound.", math.Inf(-1))
	GaugeFloat(&b, "undefined", "Not a number.", math.NaN())
	golden(t, b.String(), `# HELP jobs_total Jobs finished.
# TYPE jobs_total counter
jobs_total 7
# HELP queue_depth Jobs waiting.
# TYPE queue_depth gauge
queue_depth -2
# HELP ratio A share.
# TYPE ratio gauge
ratio 0.25
# HELP ceiling No upper bound.
# TYPE ceiling gauge
ceiling +Inf
# HELP floor No lower bound.
# TYPE floor gauge
floor -Inf
# HELP undefined Not a number.
# TYPE undefined gauge
undefined NaN
`)
}

// TestHistogramWrite pins cumulative buckets, a +Inf bucket equal to
// _count, and _sum, with and without labels.
func TestHistogramWrite(t *testing.T) {
	h := NewHistogram([]float64{0.25, 1, 8})
	for _, v := range []float64{0.125, 0.5, 0.5, 4, 64} {
		h.Observe(v)
	}
	var b strings.Builder
	h.Write(&b, "solve_seconds", "")
	h.Write(&b, "solve_seconds", `engine="mc"`)
	golden(t, b.String(), `solve_seconds_bucket{le="0.25"} 1
solve_seconds_bucket{le="1"} 3
solve_seconds_bucket{le="8"} 4
solve_seconds_bucket{le="+Inf"} 5
solve_seconds_sum 69.125
solve_seconds_count 5
solve_seconds_bucket{engine="mc",le="0.25"} 1
solve_seconds_bucket{engine="mc",le="1"} 3
solve_seconds_bucket{engine="mc",le="8"} 4
solve_seconds_bucket{engine="mc",le="+Inf"} 5
solve_seconds_sum{engine="mc"} 69.125
solve_seconds_count{engine="mc"} 5
`)
}

// TestHistogramVecWrite pins a vector's series sorted by label value,
// and the fold: with maxSeries 3, the first two distinct values keep
// their own series and every later one lands in "other".
func TestHistogramVecWrite(t *testing.T) {
	v := NewHistogramVec("stage", []float64{1}, 3)
	for _, o := range []struct {
		stage string
		x     float64
	}{
		{"simplify", 0.5},
		{"decompose", 2},
		{"race", 0.5}, // third distinct value: folded
		{"simplify", 1.5},
		{"lift", 3}, // fourth: folded
	} {
		v.Observe(o.stage, o.x)
	}
	var b strings.Builder
	v.Write(&b, "stage_seconds", "Stage time.")
	golden(t, b.String(), `# HELP stage_seconds Stage time.
# TYPE stage_seconds histogram
stage_seconds_bucket{stage="decompose",le="1"} 0
stage_seconds_bucket{stage="decompose",le="+Inf"} 1
stage_seconds_sum{stage="decompose"} 2
stage_seconds_count{stage="decompose"} 1
stage_seconds_bucket{stage="other",le="1"} 1
stage_seconds_bucket{stage="other",le="+Inf"} 2
stage_seconds_sum{stage="other"} 3.5
stage_seconds_count{stage="other"} 2
stage_seconds_bucket{stage="simplify",le="1"} 1
stage_seconds_bucket{stage="simplify",le="+Inf"} 2
stage_seconds_sum{stage="simplify"} 2
stage_seconds_count{stage="simplify"} 2
`)
}

func golden(t *testing.T, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("exposition text:\n%s\nwant:\n%s", got, want)
	}
}
