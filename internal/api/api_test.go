package api

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/solver"
)

func post(path, query, body string) (*httptest.ResponseRecorder, *http.Request) {
	return httptest.NewRecorder(), &http.Request{
		Method: http.MethodPost,
		URL:    &url.URL{Path: path, RawQuery: query},
		Body:   io.NopCloser(strings.NewReader(body)),
	}
}

// FuzzRequest feeds arbitrary queries and bodies to both request
// forms. Nothing may panic; a refusal is a 400 or a 413; an accepted
// request passes Config.Validate with a non-negative timeout; an
// accepted /solve formula — one instance, or an equivalence pair's
// miter — passes Validate; an accepted batch holds 1..MaxBatch
// instances.
func FuzzRequest(f *testing.F) {
	const sat = "p cnf 2 2\n1 2 0\n-1 -2 0\n"
	const satlib = "c SATLIB dialect\np cnf 2 1\n1 -2 0\n%\n0\n"
	for _, seed := range []struct{ query, body string }{
		{"", sat},
		{"engine=pre(mc)&samples=400000&theta=4&workers=2&timeout=1s&model=1&sync=1", sat},
		{"task=equivalent&engine=cdcl", sat + sat},
		{"task=count&members=cdcl,%20mc,,walksat&seed=18446744073709551615", satlib + sat},
		{"theta=NaN&noise=0.5&flips=10&restarts=-1", sat},
		{"workers=65&candidates=3&alloc=linear&family=rtw", "p cnf 3 1\n1 2 3 0\n"},
		{"timeout=-1s", "garbage"},
		{"task=bogus", ""},
	} {
		f.Add(seed.query, seed.body)
	}
	f.Fuzz(func(t *testing.T, query, body string) {
		accepted := func(what string, req Request, err error) bool {
			if err != nil {
				if code := Code(err); code != http.StatusBadRequest && code != http.StatusRequestEntityTooLarge {
					t.Fatalf("%s refused with %d: %v", what, code, err)
				}
				return false
			}
			if err := req.Solver.Validate(); err != nil {
				t.Fatalf("%s accepted knobs Validate refuses: %v", what, err)
			}
			if req.Timeout < 0 {
				t.Fatalf("%s accepted timeout %v", what, req.Timeout)
			}
			return true
		}
		for _, q := range []string{query, "task=equivalent&" + query} {
			req, formula, raw, err := Solve(post("/solve", q, body))
			if !accepted("/solve?"+q, req, err) {
				continue
			}
			if err := formula.Validate(); err != nil {
				t.Fatalf("/solve?%s (task %s) accepted an invalid formula: %v", q, req.Task, err)
			}
			if string(raw) != body {
				t.Fatalf("/solve?%s returned bytes other than the body", q)
			}
		}
		req, chunks, err := Batch(post("/solve/batch", query, body))
		if !accepted("/solve/batch?"+query, req, err) {
			return
		}
		if len(chunks) < 1 || len(chunks) > MaxBatch || req.Task == solver.TaskEquivalent {
			t.Fatalf("/solve/batch?%s accepted %d instances under task %q", query, len(chunks), req.Task)
		}
	})
}

// TestBatchStatus pins the one rule both tiers answer a batch with.
func TestBatchStatus(t *testing.T) {
	admitted := BatchItem{Job: "job"}
	bad := BatchItem{Code: http.StatusBadRequest}
	full := BatchItem{Code: http.StatusServiceUnavailable}
	for _, tc := range []struct {
		items []BatchItem
		want  int
	}{
		{[]BatchItem{bad, admitted, full}, http.StatusAccepted},
		{[]BatchItem{bad, full}, http.StatusServiceUnavailable},
		{[]BatchItem{full, bad}, http.StatusServiceUnavailable},
		{[]BatchItem{bad, {Code: http.StatusRequestEntityTooLarge}}, http.StatusBadRequest},
	} {
		if got := BatchStatus(tc.items); got != tc.want {
			t.Errorf("BatchStatus(%+v) = %d, want %d", tc.items, got, tc.want)
		}
	}
}
