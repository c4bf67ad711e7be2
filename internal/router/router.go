// Package router is the fleet front for nblserve replicas: a thin
// HTTP tier that parses each submission with the request model it
// shares with the replicas (internal/api), so it refuses what a
// replica would refuse before routing anything, then consistent-hashes
// the job to a backend replica by its canonical fingerprint. The
// client's original bytes are what it forwards; the replica parses
// and canonicalizes them again itself.
//
// Routing is rendezvous (highest-random-weight) hashing: every node
// scores hash(fingerprint, node) and the highest score wins, so two
// submissions of the same formula under different variable renamings
// always land on the same replica — that replica's verdict cache and
// warm engine pool see the repeat, no shared state required. Adding
// or removing a replica remaps only the jobs whose winner changed
// (1/n of the keyspace), not everything, which is why this beats
// modulo hashing for a fleet that scales.
//
// Failover order is a second rendezvous ranking on the formula's
// (vars, clauses) geometry: when the fingerprint-primary refuses a
// job (full queue, draining, dead), the retry goes to the replica
// most likely to hold a warm engine lease for that shape. A refusal
// cools the node down — for the seconds a 503's Retry-After names,
// or a short default for dial errors — and cooling nodes are tried
// last until the window passes.
//
// Job ids returned to clients are namespaced "<node>-<remote id>" so
// ids from different replicas cannot collide; /jobs/{id}, its SSE
// event stream, and DELETE resolve the node from the id alone: the
// owner is the node with the longest name that, followed by "-",
// prefixes the id, so resolution survives a router restart. /metrics
// aggregates the fleet: the router's own counters, every replica's
// families relabeled with node="...", and nblfleet_* sums grouped by
// the remaining labels.
package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/cnf"
	"repro/internal/obs"
)

// Node is one nblserve replica.
type Node struct {
	Name string // label used in job ids and the node= metric label
	URL  string // base URL, e.g. http://127.0.0.1:7797
}

// Config configures a Router.
type Config struct {
	Nodes []Node

	// Cooldown is how long a node rests after a refusal that names no
	// Retry-After (dial errors, bare 503s). Default 1s.
	Cooldown time.Duration

	// Now is the clock; tests inject a fake. Defaults to time.Now.
	Now func() time.Time
}

// backend issues every request to a replica. It sets no global
// timeout: SSE streams and long-polls must be allowed to run, and each
// request's lifetime comes from the inbound request's context.
var backend = &http.Client{}

// Router fronts a fleet of nblserve replicas.
type Router struct {
	nodes   []Node
	defCool time.Duration
	now     func() time.Time

	mu      sync.Mutex
	coolOff map[string]time.Time // node name -> earliest next attempt

	// traces holds the router-side spans of forwarded submissions,
	// keyed by namespaced job id. Each trace shares its ID with the
	// replica's trace (the X-NBL-Trace stamp), so /jobs/{id}/trace can
	// graft the replica's tree under the router's submission span into
	// one fleet-wide tree.
	traces *obs.Ring

	submits      atomic.Int64 // jobs accepted by some backend
	submitErrors atomic.Int64 // submissions no backend accepted
	failovers    atomic.Int64 // node refusals that moved a job onward
	proxied      atomic.Int64 // job lookups/cancels/streams forwarded
	scrapeErrors atomic.Int64 // replica /metrics or /jobs fetch failures
}

// New builds a Router over cfg.Nodes.
func New(cfg Config) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("router: no backend nodes")
	}
	seen := make(map[string]bool, len(cfg.Nodes))
	for _, nd := range cfg.Nodes {
		if nd.Name == "" || nd.URL == "" {
			return nil, fmt.Errorf("router: node needs both name and URL: %+v", nd)
		}
		if seen[nd.Name] {
			return nil, fmt.Errorf("router: duplicate node name %q", nd.Name)
		}
		seen[nd.Name] = true
	}
	rt := &Router{
		nodes:   append([]Node(nil), cfg.Nodes...),
		defCool: cfg.Cooldown,
		now:     cfg.Now,
		coolOff: make(map[string]time.Time),
		traces:  obs.NewRing(256),
	}
	if rt.defCool <= 0 {
		rt.defCool = time.Second
	}
	if rt.now == nil {
		rt.now = time.Now
	}
	return rt, nil
}

// Nodes returns the fleet membership.
func (rt *Router) Nodes() []Node { return append([]Node(nil), rt.nodes...) }

// hrw is the rendezvous score of key on node: FNV-1a over the node
// name and the key, separated so neither can masquerade as the other.
func hrw(node, key string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, node) //nolint:errcheck // cannot fail
	h.Write([]byte{0})
	io.WriteString(h, key) //nolint:errcheck // cannot fail
	return h.Sum64()
}

// rank orders the fleet for one submission: the fingerprint's
// rendezvous winner first (cache affinity), the rest by their
// geometry score (warm-pool affinity for failover).
func (rt *Router) rank(fp string, vars, clauses int) []Node {
	out := append([]Node(nil), rt.nodes...)
	if len(out) <= 1 {
		return out
	}
	best := 0
	for i := 1; i < len(out); i++ {
		if hrw(out[i].Name, fp) > hrw(out[best].Name, fp) {
			best = i
		}
	}
	out[0], out[best] = out[best], out[0]
	geo := strconv.Itoa(vars) + "/" + strconv.Itoa(clauses)
	rest := out[1:]
	sort.Slice(rest, func(i, j int) bool {
		si, sj := hrw(rest[i].Name, geo), hrw(rest[j].Name, geo)
		if si != sj {
			return si > sj
		}
		return rest[i].Name < rest[j].Name
	})
	return out
}

// cooling reports whether the node is resting, and until when.
func (rt *Router) cooling(name string) (time.Time, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	until, ok := rt.coolOff[name]
	if !ok || !rt.now().Before(until) {
		return time.Time{}, false
	}
	return until, true
}

func (rt *Router) cool(name string, d time.Duration) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.coolOff[name] = rt.now().Add(d)
}

// forward tries each candidate in order until one answers with
// anything other than a refusal. Refusals (503, dial failure) cool
// the node — honoring the 503's Retry-After when present — and move
// on; cooling nodes are demoted to a second pass rather than skipped
// outright, so a fully-cooling fleet still gets one honest attempt.
// Any other response, success or client error, belongs to the caller.
// A non-empty traceID is stamped on every attempt as the X-NBL-Trace
// header, making the accepting replica's trace part of the router's.
func (rt *Router) forward(r *http.Request, order []Node, method, pathAndQuery string, body []byte, traceID string) (*http.Response, Node, error) {
	var hot, cold []Node
	for _, nd := range order {
		if _, resting := rt.cooling(nd.Name); resting {
			cold = append(cold, nd)
		} else {
			hot = append(hot, nd)
		}
	}
	var refusals []string
	for _, nd := range append(hot, cold...) {
		req, err := http.NewRequestWithContext(r.Context(), method, nd.URL+pathAndQuery, bytes.NewReader(body))
		if err != nil {
			return nil, Node{}, err
		}
		if method == http.MethodPost {
			req.Header.Set("Content-Type", "text/plain")
		}
		if traceID != "" {
			req.Header.Set("X-NBL-Trace", traceID)
		}
		resp, err := backend.Do(req)
		if err != nil {
			rt.cool(nd.Name, rt.defCool)
			rt.failovers.Add(1)
			refusals = append(refusals, nd.Name+": "+err.Error())
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			cool := rt.defCool
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
				cool = time.Duration(secs) * time.Second
			}
			rt.cool(nd.Name, cool)
			rt.failovers.Add(1)
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			refusals = append(refusals,
				fmt.Sprintf("%s: 503 (cooling %v) %s", nd.Name, cool, bytes.TrimSpace(msg)))
			continue
		}
		return resp, nd, nil
	}
	return nil, Node{}, fmt.Errorf("every node refused the job: %s", strings.Join(refusals, "; "))
}

// reply is a replica's answer to one forwarded submission.
type reply struct {
	node   string
	code   int
	header http.Header
	// body is the job snapshot with its id renamespaced, or the
	// replica's refusal as it was answered.
	body []byte
	id   string // the namespaced job id; empty when the replica refused
}

// submit routes one parsed instance by the canonical fingerprint of f
// and forwards body, the client's bytes for it, to the first replica
// that takes it, as a /solve under query. An admitted job's router-side
// trace is kept. A refusal the request model cannot
// see (an unknown engine, the counting bound) comes back as the
// replica worded it. The error, an *api.Error, is a 503 when every
// replica refused and a 502 when the answer was unreadable.
func (rt *Router) submit(r *http.Request, f *cnf.Formula, query string, body []byte) (reply, error) {
	// The fingerprint is taken before the trace starts, like the parse
	// before it, so router.submit times routing and forwarding alone.
	fp := cnf.Canonicalize(f).Fingerprint()
	// The replica adopts this trace's ID through the X-NBL-Trace stamp,
	// so its spans and these merge into one fleet-wide tree on
	// /jobs/{id}/trace.
	tr := obs.NewTrace("")
	root := tr.Root("router.submit")
	fwd := root.StartChild("router.forward")
	resp, node, err := rt.forward(r, rt.rank(fp, f.NumVars, f.NumClauses()),
		http.MethodPost, "/solve?"+query, body, tr.ID())
	if err != nil {
		rt.submitErrors.Add(1)
		return reply{}, &api.Error{Code: http.StatusServiceUnavailable, Err: err}
	}
	fwd.SetAttr("node", node.Name)
	fwd.Finish()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, api.MaxBodyBytes))
	resp.Body.Close()
	if err != nil {
		return reply{}, &api.Error{Code: http.StatusBadGateway, Err: fmt.Errorf("reading %s: %w", node.Name, err)}
	}
	rep := reply{node: node.Name, code: resp.StatusCode, header: resp.Header, body: raw}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return rep, nil
	}
	if rep.body, rep.id, err = rewriteJobID(node.Name, raw); err != nil {
		return reply{}, &api.Error{Code: http.StatusBadGateway,
			Err: fmt.Errorf("%s answered an unreadable job snapshot: %w", node.Name, err)}
	}
	rt.submits.Add(1)
	root.SetAttr("node", node.Name)
	root.Finish()
	tr.SetJob(rep.id)
	rt.traces.Add(tr)
	return rep, nil
}

// retryAfterFleet is the Retry-After a fully-refusing fleet reports:
// seconds until the soonest node exits its cooldown, at least 1.
func (rt *Router) retryAfterFleet() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	now := rt.now()
	soonest := time.Duration(math.MaxInt64)
	for _, until := range rt.coolOff {
		if d := until.Sub(now); d > 0 && d < soonest {
			soonest = d
		}
	}
	if soonest == time.Duration(math.MaxInt64) {
		return 1
	}
	secs := int(math.Ceil(soonest.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// resolve maps a namespaced job id back to its node and the remote
// id. The router names a job <node>-<remote id>, and replica ids
// (j<N>) hold no "-", so the node is the longest node name that,
// followed by "-", prefixes the id: with nodes east and east-2,
// east-2-j7 is east-2's j7 and east-j7 is east's. The id alone decides,
// so a restarted router resolves every id it ever issued.
func (rt *Router) resolve(id string) (Node, string, bool) {
	var (
		owner  Node
		remote string
	)
	for _, nd := range rt.nodes {
		if rest, found := strings.CutPrefix(id, nd.Name+"-"); found && rest != "" && len(nd.Name) >= len(owner.Name) {
			owner, remote = nd, rest
		}
	}
	return owner, remote, remote != ""
}

// rewriteJobID namespaces the top-level "id" member of a job-snapshot
// JSON body and returns the rewritten body plus the namespaced id. It
// inserts node+"-" at the start of the id's string value and relays
// every other byte as the replica wrote it, so the router can never
// corrupt a verdict in transit.
func rewriteJobID(node string, raw []byte) ([]byte, string, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil, "", errors.New("job snapshot is not a JSON object")
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return nil, "", err
		}
		if key != "id" {
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return nil, "", err
			}
			continue
		}
		off := dec.InputOffset() // just past the key; the colon follows
		tok, err := dec.Token()
		remote, isString := tok.(string)
		if err != nil || !isString {
			return nil, "", errors.New("job snapshot's id is not a string")
		}
		quoted, _ := json.Marshal(node + "-") // a string always marshals
		at := int(off) + bytes.IndexByte(raw[off:], '"') + 1
		out := make([]byte, 0, len(raw)+len(quoted)-2)
		out = append(out, raw[:at]...)
		out = append(out, quoted[1:len(quoted)-1]...)
		return append(out, raw[at:]...), node + "-" + remote, nil
	}
	return nil, "", errors.New("job snapshot carries no id")
}
