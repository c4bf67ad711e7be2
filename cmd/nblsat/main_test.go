package main

import (
	"testing"

	"repro"
)

// TestEngineExpr pins the expression nblsat builds from -engine, -task
// and -preprocess: -preprocess wraps the engine in one pipeline, never
// a second around an expression that already is one.
func TestEngineExpr(t *testing.T) {
	for _, c := range []struct {
		engine     string
		task       repro.Task
		preprocess bool
		want       string
	}{
		{"", repro.TaskDecide, false, "mc"},
		{"", repro.TaskDecide, true, "pre(mc)"},
		{"", repro.TaskEquivalent, true, "pre(mc)"},
		{"", repro.TaskCount, false, "pre(count)"},
		{"", repro.TaskCount, true, "pre(count)"},
		{"", repro.TaskWeightedCount, false, "pre(wcount)"},
		{"", repro.TaskWeightedCount, true, "pre(wcount)"},
		{"cdcl", repro.TaskDecide, false, "cdcl"},
		{"cdcl", repro.TaskDecide, true, "pre(cdcl)"},
		{"count", repro.TaskCount, false, "count"},
		{"count", repro.TaskCount, true, "pre(count)"},
		{"pre(cdcl)", repro.TaskDecide, false, "pre(cdcl)"},
		{"pre(cdcl)", repro.TaskDecide, true, "pre(cdcl)"},
		{"pre(pre(cdcl))", repro.TaskDecide, true, "pre(pre(cdcl))"},
		{"portfolio", repro.TaskDecide, true, "pre(portfolio)"},
	} {
		if got := engineExpr(c.engine, c.task, c.preprocess); got != c.want {
			t.Errorf("engineExpr(%q, %s, %v) = %q, want %q", c.engine, c.task, c.preprocess, got, c.want)
		}
	}
}
