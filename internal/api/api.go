// Package api is the request model of POST /solve and POST
// /solve/batch, shared by nblserve and nblrouter: the query knobs, the
// body cap, the two body forms, the status of a refusal, the batch
// response and the JSON writer. Both tiers parse with it, so the
// router refuses what a replica would, in the same words, before it
// routes anything. The knob bounds are solver.Config.Validate's.
//
// Query: engine (registry expression, e.g. pre(mc)), task (decide |
// count | weighted-count | equivalent), seed, samples, theta, workers,
// family, alloc, flips, restarts, noise, candidates, members (comma
// lineup), model=1 (model recovery), timeout (Go duration) and sync=1
// (/solve only: answer with the finished job).
//
// A /solve body is one DIMACS instance, or for task=equivalent two
// over the same declared variables, lowered to their miter
// (logic.EquivalenceCNF): UNSAT certifies the pair equivalent, and a
// SAT model read over variables 1..n tells them apart. The miter costs
// what the pair's clauses hold, whatever its headers declare; a pair
// whose miter would need a variable past cnf.MaxVar is a 400. A
// /solve/batch body holds 1..MaxBatch instances (dimacs.SplitBatch),
// each admitted on its own, and cannot carry task=equivalent, whose
// pairing would be ambiguous.
package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/cnf"
	"repro/internal/dimacs"
	"repro/internal/logic"
	"repro/internal/solver"
)

const (
	// MaxBodyBytes caps a request body (16 MiB holds every SATLIB
	// archive instance with orders of magnitude to spare).
	MaxBodyBytes = 16 << 20
	// MaxBatch caps the instances of one /solve/batch body; a batch
	// deeper than the default queue could never be admitted whole.
	MaxBatch = 256
)

// Request is one submission's knobs.
type Request struct {
	// Engine is a registry expression; empty selects the server's
	// default.
	Engine string
	// Task selects what the job computes; empty means decide. For
	// TaskEquivalent the formula is already the miter, which the engine
	// decides while the job stays labeled equivalent.
	Task solver.Task
	// Solver carries the engine knobs; zero values take registry
	// defaults.
	Solver  solver.Config
	Timeout time.Duration // bounds the solve's wall clock; 0 = none
	Sync    bool          // /solve answers with the finished job
	// TraceID adopts a propagated trace ID (the router's X-NBL-Trace
	// header), so the router's spans and the replica's share one trace.
	TraceID string
}

// Error is a request refused before admission, with the HTTP status
// it answers with.
type Error struct {
	Code int
	Err  error
}

func (e *Error) Error() string { return e.Err.Error() }

func (e *Error) Unwrap() error { return e.Err }

// Code is the status a refusal answers with: an *Error's own code,
// else 400.
func Code(err error) int {
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	return http.StatusBadRequest
}

func refuse(code int, format string, args ...any) error {
	return &Error{Code: code, Err: fmt.Errorf(format, args...)}
}

// ParseRequest reads the knobs of a /solve or /solve/batch query. It
// checks their syntax and the timeout's sign; every other bound is
// Config.Validate's.
func ParseRequest(q url.Values) (Request, error) {
	on := func(name string) bool {
		switch strings.ToLower(q.Get(name)) {
		case "1", "true", "yes", "on":
			return true
		}
		return false
	}
	req := Request{Engine: q.Get("engine"), Sync: on("sync"), Solver: solver.Config{
		Family:     q.Get("family"),
		Allocation: q.Get("alloc"),
		FindModel:  on("model"),
		Members:    solver.ParseMembers(q.Get("members")),
	}}
	var err error
	if req.Task, err = solver.ParseTask(q.Get("task")); err != nil {
		return req, &Error{Code: http.StatusBadRequest, Err: err}
	}
	cfg := &req.Solver
	for _, k := range []struct {
		name string
		dst  any
	}{
		{"seed", &cfg.Seed}, {"samples", &cfg.MaxSamples}, {"theta", &cfg.Theta},
		{"workers", &cfg.Workers}, {"flips", &cfg.MaxFlips}, {"restarts", &cfg.Restarts},
		{"noise", &cfg.NoiseP}, {"candidates", &cfg.Candidates}, {"timeout", &req.Timeout},
	} {
		v := q.Get(k.name)
		if v == "" {
			continue
		}
		switch p := k.dst.(type) {
		case *uint64: // seeds span the full uint64 range
			*p, err = strconv.ParseUint(v, 10, 64)
		case *int64:
			*p, err = strconv.ParseInt(v, 10, 64)
		case *int:
			*p, err = strconv.Atoi(v)
		case *float64:
			*p, err = strconv.ParseFloat(v, 64)
		case *time.Duration:
			if *p, err = time.ParseDuration(v); *p < 0 {
				err = errors.New("negative")
			}
		}
		if err != nil {
			return req, refuse(http.StatusBadRequest, "bad %s %q", k.name, v)
		}
	}
	if err := cfg.Validate(); err != nil {
		return req, &Error{Code: http.StatusBadRequest, Err: err}
	}
	return req, nil
}

// Solve parses a POST /solve: the query into a Request, and the body
// into the formula it asks about — its one instance, or for
// task=equivalent the miter of its pair. The body's bytes come back
// too, for the router to forward unchanged.
func Solve(w http.ResponseWriter, r *http.Request) (Request, *cnf.Formula, []byte, error) {
	req, err := ParseRequest(r.URL.Query())
	if err != nil {
		return req, nil, nil, err
	}
	body, err := readBody(w, r)
	if err != nil {
		return req, nil, nil, err
	}
	var f *cnf.Formula
	if req.Task == solver.TaskEquivalent {
		f, err = miter(body)
	} else {
		f, err = dimacs.Parse(body)
	}
	if err != nil {
		return req, nil, nil, &Error{Code: http.StatusBadRequest, Err: err}
	}
	return req, f, body, nil
}

// Batch parses a POST /solve/batch: the query into a Request, and the
// body into its 1..MaxBatch instances, each left unparsed so that one
// bad instance fails alone.
func Batch(w http.ResponseWriter, r *http.Request) (Request, []string, error) {
	req, err := ParseRequest(r.URL.Query())
	if err != nil {
		return req, nil, err
	}
	if req.Task == solver.TaskEquivalent {
		return req, nil, refuse(http.StatusBadRequest,
			"task=equivalent is not supported on /solve/batch; POST the pair to /solve")
	}
	body, err := readBody(w, r)
	if err != nil {
		return req, nil, err
	}
	chunks, err := dimacs.SplitBatch(bytes.NewReader(body))
	switch {
	case err != nil:
		return req, nil, &Error{Code: http.StatusBadRequest, Err: err}
	case len(chunks) == 0:
		return req, nil, refuse(http.StatusBadRequest, "batch carries no DIMACS instances")
	case len(chunks) > MaxBatch:
		return req, nil, refuse(http.StatusRequestEntityTooLarge,
			"batch carries %d instances, cap is %d", len(chunks), MaxBatch)
	}
	return req, chunks, nil
}

// readBody reads the whole body under MaxBodyBytes before anything
// parses it, so an oversized body is a 413 whatever its first bytes.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return nil, refuse(http.StatusRequestEntityTooLarge,
			"body exceeds the %d-byte limit", MaxBodyBytes)
	}
	if err != nil {
		return nil, &Error{Code: http.StatusBadRequest, Err: err}
	}
	return body, nil
}

// miter lowers a two-instance body to the decide instance any engine
// can run: SAT refutes the pair's equivalence, UNSAT certifies it.
func miter(body []byte) (*cnf.Formula, error) {
	chunks, err := dimacs.SplitBatch(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if len(chunks) != 2 {
		return nil, fmt.Errorf(
			"task=equivalent needs exactly 2 DIMACS instances in the body, got %d", len(chunks))
	}
	var pair [2]*cnf.Formula
	for i, chunk := range chunks {
		if pair[i], err = dimacs.ReadString(chunk); err != nil {
			return nil, fmt.Errorf("instance %d: %w", i+1, err)
		}
	}
	return logic.EquivalenceCNF(pair[0], pair[1])
}

// BatchItem is one instance's outcome in a /solve/batch response: the
// job it became (the tier's job snapshot), or its own error with the
// status a single /solve would have answered.
type BatchItem struct {
	Index int    `json:"index"`
	Job   any    `json:"job,omitempty"`
	Error string `json:"error,omitempty"`
	Code  int    `json:"code,omitempty"`
}

// BatchStatus is the status of a /solve/batch response: 202 when any
// instance was admitted, else 503 when any was refused for capacity (a
// retry may admit it), else the first instance's code.
func BatchStatus(items []BatchItem) int {
	code := items[0].Code
	for _, it := range items {
		if it.Job != nil {
			return http.StatusAccepted
		}
		if it.Code == http.StatusServiceUnavailable {
			code = http.StatusServiceUnavailable
		}
	}
	return code
}

// WriteJSON writes v as the compact JSON body of a code response, one
// line ended by a newline: the encoding SSE events carry, so a job's
// GET body and its done event hold the same bytes.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone; nothing to do
}

// WriteError writes err as the {"error": ...} body of a code response.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}
