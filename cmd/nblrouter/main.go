// Command nblrouter fronts a fleet of nblserve replicas: it
// consistent-hashes each submission to a replica by its canonical
// fingerprint (renamed twins land on the same node and hit its
// verdict cache), fails over down the same fingerprint ranking when a
// replica refuses or dies, and aggregates the fleet's jobs, metrics,
// and health behind one address.
//
// Usage:
//
//	nblrouter -nodes URL[,URL...] [flags]
//
//	-addr      listen address (default 127.0.0.1:7796; :0 picks a port)
//	-nodes     comma-separated replica base URLs; each entry is either
//	           a bare URL (node named by its host:port) or name=URL
//	-pprof     expose the Go profiler under /debug/pprof/ (default off;
//	           profiles leak timing and workload structure)
//
// A replica that refuses a submission rests for its 503's Retry-After,
// or for 1s when the refusal names none (a dial error, a bare 503).
//
// The endpoint set mirrors nblserve's, so clients switch between one
// replica and the fleet by changing only the address. Job ids are
// namespaced "<node>-<id>"; the X-NBL-Node response header names the
// replica that holds each job.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/router"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7796", "listen address (host:port; :0 picks a free port)")
		nodes   = flag.String("nodes", "", "comma-separated replica base URLs (URL or name=URL)")
		pprofOn = flag.Bool("pprof", false, "expose the Go profiler under /debug/pprof/")
	)
	flag.Parse()
	if err := run(*addr, *nodes, *pprofOn); err != nil {
		fmt.Fprintln(os.Stderr, "nblrouter:", err)
		os.Exit(1)
	}
}

// parseNodes turns the -nodes flag into fleet membership. A bare URL
// gets its host:port as the node name — the same default nblserve
// picks for -node-id, so ids and metrics line up across tiers.
func parseNodes(spec string) ([]router.Node, error) {
	var out []router.Node
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, raw, named := strings.Cut(entry, "=")
		if !named {
			raw = entry
			name = ""
		}
		if !strings.Contains(raw, "://") {
			raw = "http://" + raw
		}
		u, err := url.Parse(raw)
		if err != nil || u.Host == "" {
			return nil, fmt.Errorf("bad node %q", entry)
		}
		if name == "" {
			name = u.Host
		}
		out = append(out, router.Node{Name: name, URL: strings.TrimRight(u.String(), "/")})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-nodes names no replicas")
	}
	return out, nil
}

func run(addr, nodeSpec string, pprofOn bool) error {
	nodes, err := parseNodes(nodeSpec)
	if err != nil {
		return err
	}
	rt, err := router.New(router.Config{Nodes: nodes})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	for _, nd := range rt.Nodes() {
		fmt.Printf("nblrouter: node %s at %s\n", nd.Name, nd.URL)
	}
	// The machine-readable line tools (and the e2e tests) key on: the
	// resolved address, after :0 expansion.
	fmt.Printf("nblrouter: listening on %s\n", ln.Addr())

	handler := rt.Handler()
	if pprofOn {
		handler = obs.WithPprof(handler)
		fmt.Println("nblrouter: profiler exposed at /debug/pprof/")
	}
	hs := &http.Server{Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		fmt.Printf("nblrouter: %v — shutting down\n", got)
	case err := <-errCh:
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return hs.Shutdown(ctx)
}
