// Conformance of the two HTTP tiers on malformed requests: nblrouter
// refuses what an nblserve replica refuses, with the same status and
// the same error body, and refuses it before routing, so the replica
// never sees the request.
package repro

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/router"
	"repro/internal/service"
)

const conformanceSAT = "p cnf 2 2\n1 2 0\n-1 -2 0\n"

func TestRequestConformance(t *testing.T) {
	srv := service.NewServer(service.Config{Workers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // nothing was admitted
	})
	var posts atomic.Int64
	h := srv.Handler()
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(replica.Close)
	rt, err := router.New(router.Config{Nodes: []router.Node{{Name: "n0", URL: replica.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	// A valid DIMACS document past the 16 MiB body cap.
	const clause = "1 2 0\n"
	n := (17 << 20) / len(clause)
	huge := "p cnf 2 " + strconv.Itoa(n) + "\n" + strings.Repeat(clause, n)

	type row struct {
		name, path, query, body string
		code                    int
	}
	var rows []row
	for _, path := range []string{"/solve", "/solve/batch"} {
		// A portfolio racing pre(portfolio) would lease itself without
		// bound and, with no timeout, grow until the replica died.
		for _, q := range []string{"samples=x", "theta=NaN", "workers=65", "timeout=-1s", "task=bogus",
			"engine=portfolio&members=pre(portfolio)"} {
			rows = append(rows, row{q, path, q, conformanceSAT, http.StatusBadRequest})
		}
		rows = append(rows, row{"17 MiB body", path, "", huge, http.StatusRequestEntityTooLarge})
	}
	rows = append(rows,
		row{"garbage body", "/solve", "", "this is not dimacs", http.StatusBadRequest},
		// Variable 4294967297 wraps to x1 in an int32 literal.
		row{"variable past cnf.MaxVar", "/solve", "", "p cnf 5000000000 1\n4294967297 0\n", http.StatusBadRequest},
		row{"one-instance equivalence", "/solve", "task=equivalent", conformanceSAT, http.StatusBadRequest},
		// Lowered, this pair would build 8,000,000 circuit inputs, ~5 GB.
		row{"equivalence pair past api.MaxMiterVars", "/solve", "task=equivalent",
			"p cnf 4000000 1\n1 0\np cnf 4000000 1\n1 0\n", http.StatusBadRequest},
		row{"batch equivalence", "/solve/batch", "task=equivalent", conformanceSAT + conformanceSAT, http.StatusBadRequest},
		row{"empty batch", "/solve/batch", "", "", http.StatusBadRequest},
		row{"257-instance batch", "/solve/batch", "", strings.Repeat(conformanceSAT, 257), http.StatusRequestEntityTooLarge},
	)

	post := func(base string, r row) (int, []byte) {
		t.Helper()
		resp, err := http.Post(base+r.path+"?"+r.query, "text/plain", strings.NewReader(r.body))
		if err != nil {
			t.Fatalf("%s %s: %v", r.path, r.name, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: reading the answer: %v", r.path, r.name, err)
		}
		return resp.StatusCode, body
	}
	// What only an engine's factory can refuse passes the router, which
	// links no engines, and the replica's 400 comes back through it.
	var relayed []row
	for _, q := range []string{"engine=rtw&model=1", "engine=sbl&model=1", "engine=analog&model=1",
		"engine=count&model=1", "engine=wcount&model=1", "engine=mc&family=nosuch", "engine=sbl&alloc=nosuch"} {
		for _, sync := range []string{"", "&sync=1"} {
			relayed = append(relayed, row{q + sync, "/solve", q + sync, conformanceSAT, http.StatusBadRequest})
		}
	}
	for i, r := range append(rows, relayed...) {
		before := posts.Load()
		routerCode, routerBody := post(front.URL, r)
		want := int64(0)
		if i >= len(rows) {
			want = 1
		}
		if forwarded := posts.Load() - before; forwarded != want {
			t.Errorf("%s %s: the router forwarded it %d time(s), want %d", r.path, r.name, forwarded, want)
		}
		replicaCode, replicaBody := post(replica.URL, r)
		if replicaCode != r.code {
			t.Errorf("%s %s: replica answered %d %s, want %d", r.path, r.name, replicaCode, replicaBody, r.code)
		}
		if routerCode != replicaCode || !bytes.Equal(routerBody, replicaBody) {
			t.Errorf("%s %s: router answered %d %s, replica %d %s",
				r.path, r.name, routerCode, routerBody, replicaCode, replicaBody)
		}
	}
}
