// End-to-end test of the fleet tier: build the real nblserve and
// nblrouter binaries, boot one router over two replicas (each with
// its own durable verdict store), and drive the fleet contracts over
// real TCP — fingerprint-routed placement, cross-node determinism, a
// renamed twin answered from cache without a second solve, warm-pool
// hits across seeds through the seedless pool key, and a verdict
// surviving a replica kill/restart bit-identically through the store.
package repro

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

// proc is one running fleet binary plus its parsed listen address.
type proc struct {
	cmd    *exec.Cmd
	done   chan error
	exited atomic.Bool // set once done has been consumed
	base   string      // http://host:port
	addr   string      // host:port
}

// startProc launches a binary, scans stdout for the "listening on"
// line, and keeps the pipe drained. Callers stop it via stop().
func startProc(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{cmd: cmd, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	t.Cleanup(func() { p.stop(t) })

	sc := bufio.NewScanner(stdout)
	const marker = "listening on "
	deadline := time.After(15 * time.Second)
	lines := make(chan string)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	for p.addr == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("%s exited before announcing its address", filepath.Base(bin))
			}
			if i := strings.Index(line, marker); i >= 0 {
				p.addr = strings.TrimSpace(line[i+len(marker):])
				p.base = "http://" + p.addr
			}
		case <-deadline:
			t.Fatalf("%s never announced its address", filepath.Base(bin))
		}
	}
	go func() { // keep draining after the address line
		for range lines {
		}
	}()
	return p
}

// stop kills the process if it is still running (idempotent).
func (p *proc) stop(t *testing.T) {
	if p.exited.Swap(true) {
		return
	}
	p.cmd.Process.Kill()
	<-p.done
}

// sigterm gracefully stops the process and requires a clean exit.
func (p *proc) sigterm(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-p.done:
		p.exited.Store(true)
		if err != nil {
			t.Fatalf("process exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("process did not exit after SIGTERM")
	}
}

// fleetPost posts a DIMACS body and returns the X-NBL-Node header,
// the decoded job, and the raw "result" JSON (for bit-identical
// comparisons across solves and nodes).
func fleetPost(t *testing.T, url, body string) (node string, job e2eJob, rawResult string) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 400 {
		t.Fatalf("POST %s: HTTP %d\n%s", url, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatalf("bad job JSON: %v\n%s", err, data)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	return resp.Header.Get("X-NBL-Node"), job, string(fields["result"])
}

// scrapeMetrics parses a Prometheus text endpoint into a map keyed by
// the full sample name (labels included).
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[line[:sp]] = v
		}
	}
	return out
}

func TestFleetEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs three processes")
	}
	dir := t.TempDir()
	serveBin := filepath.Join(dir, "nblserve")
	routerBin := filepath.Join(dir, "nblrouter")
	for bin, pkg := range map[string]string{
		serveBin: "./cmd/nblserve", routerBin: "./cmd/nblrouter",
	} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}

	store0 := filepath.Join(dir, "store0.nbl")
	store1 := filepath.Join(dir, "store1.nbl")
	startReplica := func(addr, store, nodeID string) *proc {
		return startProc(t, serveBin,
			"-addr", addr, "-workers", "2", "-store", store, "-node-id", nodeID,
			"-drain", "10s")
	}
	n0 := startReplica("127.0.0.1:0", store0, "n0")
	n1 := startReplica("127.0.0.1:0", store1, "n1")
	waitHealthy(t, n0.base)
	waitHealthy(t, n1.base)

	rp := startProc(t, routerBin, "-addr", "127.0.0.1:0",
		"-nodes", fmt.Sprintf("n0=%s,n1=%s", n0.base, n1.base))
	waitHealthy(t, rp.base)
	replicas := map[string]*proc{"n0": n0, "n1": n1}
	stores := map[string]string{"n0": store0, "n1": store1}

	uf8 := readTestdata(t, "testdata/uf8-satlib.cnf")
	uf8Body, err := os.ReadFile("testdata/uf8-satlib.cnf")
	if err != nil {
		t.Fatal(err)
	}
	twinBody, err := os.ReadFile("testdata/uf8-renamed.cnf")
	if err != nil {
		t.Fatal(err)
	}
	twin := readTestdata(t, "testdata/uf8-renamed.cnf")
	const solveQ = "/solve?engine=cdcl&sync=1&model=1&seed=11"

	// 1. First solve lands wherever uf8's fingerprint says, and is a
	// real solve, not a cache hit.
	owner, first, firstRaw := fleetPost(t, rp.base+solveQ, string(uf8Body))
	if owner != "n0" && owner != "n1" {
		t.Fatalf("submit response names no node: %q", owner)
	}
	if first.State != "done" || first.CacheHit || first.Result == nil ||
		first.Result.Status != StatusSat {
		t.Fatalf("first uf8 solve: %+v", first)
	}
	if !strings.HasPrefix(first.ID, owner+"-") {
		t.Fatalf("job id %q not namespaced under %q", first.ID, owner)
	}

	// 2. The renamed twin routes to the same replica (fingerprint
	// affinity) and is answered from its verdict cache, with the model
	// translated into the twin's variable space.
	twinNode, twinJob, _ := fleetPost(t, rp.base+solveQ, string(twinBody))
	if twinNode != owner {
		t.Fatalf("renamed twin routed to %q, original to %q", twinNode, owner)
	}
	if !twinJob.CacheHit || twinJob.Result == nil || twinJob.Result.Status != StatusSat {
		t.Fatalf("renamed twin should be a cache hit: %+v", twinJob)
	}
	if twinJob.Result.Assignment == nil || !twinJob.Result.Assignment.Satisfies(twin) {
		t.Fatal("translated model does not satisfy the twin")
	}
	m := scrapeMetrics(t, rp.base)
	if got := m["nblfleet_cache_hits_total"]; got != 1 {
		t.Fatalf("nblfleet_cache_hits_total = %v, want exactly 1 (one solve, one remote hit)", got)
	}

	// 3. Cross-node determinism: the other replica, solving uf8 cold
	// (its cache and store have never seen it), must produce the same
	// verdict, model, and effort accounting bit-for-bit (wall excluded
	// — it is clock, not computation).
	other := "n1"
	if owner == "n1" {
		other = "n0"
	}
	_, cold, _ := fleetPost(t, replicas[other].base+solveQ, string(uf8Body))
	if cold.CacheHit {
		t.Fatalf("cold replica %s reported a cache hit", other)
	}
	if cold.Result == nil || cold.Result.Status != first.Result.Status ||
		cold.Result.Stats != first.Result.Stats ||
		!reflect.DeepEqual(cold.Result.Assignment, first.Result.Assignment) {
		t.Fatalf("cross-node determinism broken:\n%s: %+v\n%s: %+v",
			owner, first.Result, other, cold.Result)
	}
	if !cold.Result.Assignment.Satisfies(uf8) {
		t.Fatal("cold replica's model does not satisfy uf8")
	}

	// 4. Warm-pool economics: bare mc on one formula under several
	// seeds. Each seed is its own cache key, so every job solves, and
	// placement follows the fingerprint alone, so every job lands on
	// one replica. The pool key leaves the seed out, so every lease
	// after the first takes the same warm engine. No other step leases
	// mc, so the first lease is cold.
	before := scrapeMetrics(t, rp.base)["nblfleet_pool_warm_hits_total"]
	const body = "p cnf 3 2\n1 2 0\n-1 3 0\n"
	seeds := []int{1, 2, 3, 4}
	for _, seed := range seeds {
		_, job, _ := fleetPost(t,
			fmt.Sprintf("%s/solve?engine=mc&sync=1&samples=400000&seed=%d", rp.base, seed), body)
		if job.State != "done" || job.CacheHit || job.Result == nil || job.Result.Status != StatusSat {
			t.Fatalf("mc under seed %d: %+v", seed, job)
		}
	}
	after := scrapeMetrics(t, rp.base)["nblfleet_pool_warm_hits_total"]
	if warm := after - before; warm != float64(len(seeds)-1) {
		t.Fatalf("fleet warm-pool hits rose by %v over %d seeds of one formula, want %d",
			warm, len(seeds), len(seeds)-1)
	}

	// 5. Kill the owning replica and restart it on the same address
	// over the same store file. Its LRU starts empty; the resubmitted
	// formula must come back as a store-backed cache hit, bit-identical
	// to the original result — wall and stats included, because the
	// store replays the recorded verdict rather than re-solving.
	replicas[owner].sigterm(t)
	restarted := startReplica(replicas[owner].addr, stores[owner], owner)
	waitHealthy(t, restarted.base)

	reNode, rejob, reRaw := fleetPost(t, rp.base+solveQ, string(uf8Body))
	if reNode != owner {
		t.Fatalf("post-restart submit routed to %q, want %q", reNode, owner)
	}
	if !rejob.CacheHit || rejob.Result == nil || rejob.Result.Status != StatusSat {
		t.Fatalf("restarted replica should answer from the store: %+v", rejob)
	}
	if reRaw != firstRaw {
		t.Fatalf("store-backed verdict is not bit-identical:\nfirst   %s\nreplay  %s",
			firstRaw, reRaw)
	}
	m = scrapeMetrics(t, rp.base)
	if got := m[`nblserve_store_hits_total{node="`+owner+`"}`]; got != 1 {
		t.Fatalf("restarted %s store hits = %v, want 1", owner, got)
	}
	if got := m["nblfleet_store_hits_total"]; got != 1 {
		t.Fatalf("nblfleet_store_hits_total = %v, want 1", got)
	}

	// 6. The fleet front stays coherent: the job proxied through the
	// router resolves on the restarted node, and /healthz reports a
	// fully healthy fleet.
	var proxied e2eJob
	getJSON(t, rp.base+"/jobs/"+rejob.ID, &proxied)
	if proxied.ID != rejob.ID || proxied.State != "done" {
		t.Fatalf("proxied job after restart: %+v", proxied)
	}
	var health struct {
		Status string `json:"status"`
		Nodes  []struct {
			Name    string `json:"name"`
			Healthy bool   `json:"healthy"`
		} `json:"nodes"`
	}
	getJSON(t, rp.base+"/healthz", &health)
	if health.Status != "ok" || len(health.Nodes) != 2 {
		t.Fatalf("fleet health: %+v", health)
	}
	for _, nd := range health.Nodes {
		if !nd.Healthy {
			t.Fatalf("node %s unhealthy after restart: %+v", nd.Name, health)
		}
	}

	// 7. Fleet-wide tracing: a routed solve that reaches a sampling
	// engine yields ONE trace tree under one trace ID — the router's
	// submit spans with the replica's queue/cache/pool/pipeline/engine
	// spans grafted beneath them — and the UNKNOWN mc verdict's check
	// span carries a non-empty SNR trajectory.
	hardBody, err := os.ReadFile("testdata/rand8-hard.cnf")
	if err != nil {
		t.Fatal(err)
	}
	hardNode, hardJob, _ := fleetPost(t,
		rp.base+"/solve?engine=pre(mc)&sync=1&samples=50000", string(hardBody))
	if hardJob.State != "done" || hardJob.Result == nil ||
		hardJob.Result.Status != StatusUnknown {
		t.Fatalf("hard instance should finish UNKNOWN: %+v", hardJob)
	}
	var tr obs.TraceJSON
	getJSON(t, rp.base+"/jobs/"+hardJob.ID+"/trace", &tr)
	if tr.TraceID == "" {
		t.Fatal("fleet trace has no trace ID")
	}
	if tr.Job != hardJob.ID {
		t.Fatalf("fleet trace tagged %q, want %q", tr.Job, hardJob.ID)
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "router.submit" {
		t.Fatalf("fleet trace should be one tree under router.submit, got %+v", tr.Spans)
	}
	for _, name := range []string{
		"router.forward", "job", "queue.wait", "cache.lru", "pool.acquire",
		"solve", "pipeline.simplify", "pipeline.component", "mc.check",
	} {
		if tr.Find(name) == nil {
			t.Errorf("fleet trace is missing the %q span", name)
		}
	}
	check := tr.Find("mc.check")
	if check == nil || len(check.Traj) == 0 {
		t.Fatalf("UNKNOWN verdict's check span has no SNR trajectory: %+v", check)
	}

	// The replica's own copy of the trace (fetched directly, bypassing
	// the router) must carry the same trace ID — one ID across both
	// processes is what makes the fleet hop diagnosable.
	remote := strings.TrimPrefix(hardJob.ID, hardNode+"-")
	var replicaTr obs.TraceJSON
	getJSON(t, replicas[hardNode].base+"/jobs/"+remote+"/trace", &replicaTr)
	if replicaTr.TraceID != tr.TraceID {
		t.Fatalf("trace ID split across the fleet hop: router %q, replica %q",
			tr.TraceID, replicaTr.TraceID)
	}
}
