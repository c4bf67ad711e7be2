// Command nblserve runs the resident NBL-SAT solve service: an
// HTTP/JSON API over the engine registry with an async job queue, a
// bounded worker pool with warm per-engine state, a renaming-stable
// verdict cache with an optional durable store tier, live progress,
// and Prometheus metrics.
//
// Usage:
//
//	nblserve [flags]
//
//	-addr     listen address (default 127.0.0.1:7797; :0 picks a port)
//	-workers  solve-pool size (default 2× CPUs, capped at 8)
//	-queue    backlog bound before submissions get 503 (default 256)
//	-cache    verdict-cache entries, the only verdicts held in memory
//	          with or without -store (default 4096; negative disables)
//	-store    path to a durable verdict store file (empty disables);
//	          definitive verdicts persist across restarts, and a byte
//	          copy of the file seeds another replica
//	-node-id  fleet node name, surfaced as the X-NBL-Node response
//	          header and a node label on /metrics
//	          (default hostname:port after the listen address resolves)
//	-engine   default engine expression (default pre(portfolio))
//	-max-count-vars
//	          variable bound for counting tasks (task=count,
//	          task=weighted-count); larger instances are rejected with
//	          400 instead of tying up a worker on an exponential
//	          enumeration (default 64; negative disables the bound)
//	-drain    graceful-shutdown grace period (default 30s)
//	-trace-slow
//	          log the full span tree of any job whose submit-to-finish
//	          latency meets this duration (0, the default, disables);
//	          the same trees are always queryable via /jobs/{id}/trace
//	-pprof    expose the Go profiler under /debug/pprof/ (default off;
//	          profiles leak timing and workload structure, so opt in
//	          only on instances you are comfortable profiling remotely)
//
// API sketch (see internal/service for the full surface):
//
//	curl -d @instance.cnf 'localhost:7797/solve?engine=pre(mc)&sync=1'
//	curl -d @instance.cnf 'localhost:7797/solve?timeout=30s'   # async
//	curl localhost:7797/jobs/j1?wait=5s                        # long-poll
//	curl localhost:7797/jobs/j1/events                         # SSE progress
//	curl localhost:7797/jobs/j1/trace                          # span tree
//	curl localhost:7797/debug/traces                           # recent traces
//	curl -X DELETE localhost:7797/jobs/j1                      # cancel
//	curl localhost:7797/metrics                                # Prometheus
//
// SIGINT/SIGTERM trigger a graceful shutdown: intake stops, queued and
// running jobs drain within -drain, stragglers are cancelled (engines
// honor context cancellation in their hot loops), and the process exits
// 0 on a clean drain. While draining, rejected submissions carry a
// Retry-After header with the remaining grace seconds, which the fleet
// router honors when failing over.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/verdictstore"

	// Link every engine into the registry.
	_ "repro"
)

func main() {
	defWorkers := 2 * runtime.NumCPU()
	if defWorkers > 8 {
		defWorkers = 8
	}
	var (
		addr         = flag.String("addr", "127.0.0.1:7797", "listen address (host:port; :0 picks a free port)")
		workers      = flag.Int("workers", defWorkers, "solve-pool size (bounds concurrent engine work)")
		queue        = flag.Int("queue", 256, "job queue depth before submissions are rejected with 503")
		cache        = flag.Int("cache", 4096, "verdict cache entries, the only verdicts held in memory with or without -store (negative disables caching)")
		store        = flag.String("store", "", "durable verdict store file (empty disables persistence)")
		nodeID       = flag.String("node-id", "", "fleet node name for X-NBL-Node and metrics (default hostname:port)")
		engine       = flag.String("engine", "pre(portfolio)", "default engine expression for submissions that name none")
		maxCountVars = flag.Int("max-count-vars", 64,
			"variable bound for counting tasks; above it submissions get 400 (negative disables)")
		drain     = flag.Duration("drain", 30*time.Second, "graceful-shutdown grace period for in-flight jobs")
		traceSlow = flag.Duration("trace-slow", 0,
			"log the span tree of jobs at least this slow end to end (0 disables)")
		pprofOn = flag.Bool("pprof", false, "expose the Go profiler under /debug/pprof/")
	)
	flag.Parse()
	if err := run(*addr, *workers, *queue, *cache, *store, *nodeID, *engine, *maxCountVars,
		*drain, *traceSlow, *pprofOn); err != nil {
		fmt.Fprintln(os.Stderr, "nblserve:", err)
		os.Exit(1)
	}
}

func run(addr string, workers, queue, cache int, storePath, nodeID, engine string, maxCountVars int,
	drain, traceSlow time.Duration, pprofOn bool) error {
	// Listen before constructing the server: the default node id embeds
	// the resolved port (":0" expansion included), and a busy address
	// should fail before a store file is opened.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if nodeID == "" {
		host, herr := os.Hostname()
		if herr != nil {
			host = "nblserve"
		}
		if _, port, perr := net.SplitHostPort(ln.Addr().String()); perr == nil {
			nodeID = host + ":" + port
		} else {
			nodeID = host
		}
	}

	var vs *verdictstore.Store
	if storePath != "" {
		vs, err = verdictstore.Open(storePath)
		if err != nil {
			ln.Close()
			return err
		}
		defer vs.Close()
		st := vs.Stats()
		fmt.Printf("nblserve: verdict store %s (%d verdicts loaded, %d torn bytes dropped)\n",
			storePath, st.Loaded, st.TornBytes)
	}

	srv := service.NewServer(service.Config{
		Workers:       workers,
		QueueDepth:    queue,
		CacheEntries:  cache,
		DefaultEngine: engine,
		MaxCountVars:  maxCountVars,
		Store:         vs,
		NodeID:        nodeID,
		TraceSlow:     traceSlow,
	})

	// The machine-readable line tools (and the e2e tests) key on: the
	// resolved address, after :0 expansion.
	fmt.Printf("nblserve: listening on %s\n", ln.Addr())

	handler := srv.Handler()
	if pprofOn {
		handler = obs.WithPprof(handler)
		fmt.Println("nblserve: profiler exposed at /debug/pprof/")
	}
	hs := &http.Server{Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	select {
	case got := <-sig:
		fmt.Printf("nblserve: %v — draining (grace %v)\n", got, drain)
	case err := <-errCh:
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	// A second signal aborts the drain immediately.
	go func() {
		<-sig
		cancel()
	}()
	// Stop intake first (in-flight HTTP submissions start answering 503
	// + Retry-After with the remaining grace), then close the listener
	// and wait for both the connections and the job pool to drain.
	drained := make(chan error, 1)
	go func() { drained <- srv.Shutdown(ctx) }()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if err := <-drained; err != nil {
		fmt.Printf("nblserve: drain incomplete (%v); in-flight jobs cancelled\n", err)
	} else {
		fmt.Println("nblserve: drained cleanly")
	}
	return nil
}
