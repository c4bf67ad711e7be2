package enginepool_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cnf"
	"repro/internal/enginepool"
	"repro/internal/gen"
	"repro/internal/solver"

	// Register the engines the pool tests lease.
	_ "repro/internal/core"
	_ "repro/internal/dpll"
	_ "repro/internal/rtw"
	_ "repro/internal/sbl"
)

// cfg keeps solves fast on the tiny paper instances.
func cfg() solver.Config {
	return solver.Config{Seed: 7, MaxSamples: 20_000}
}

func TestAcquireReleaseWarm(t *testing.T) {
	p := enginepool.New(4)
	f := gen.PaperSAT()

	l1, err := p.Acquire("mc", cfg(), f)
	if err != nil {
		t.Fatal(err)
	}
	if l1.Warm() {
		t.Error("first acquire on an empty pool reported warm")
	}
	if _, err := l1.Solve(context.Background()); err != nil {
		t.Fatal(err)
	}
	l1.Release()
	l1.Release() // idempotent

	l2, err := p.Acquire("mc", cfg(), f)
	if err != nil {
		t.Fatal(err)
	}
	if !l2.Warm() {
		t.Error("second acquire of the same class was not warm")
	}
	l2.Release()

	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("want 1 hit / 1 miss, got %d / %d", st.Hits, st.Misses)
	}
	if st.Size != 1 || st.Occupancy["mc"] != 1 {
		t.Errorf("want one idle mc instance, got size %d occupancy %v", st.Size, st.Occupancy)
	}
}

func TestDistinctClassesDoNotShare(t *testing.T) {
	p := enginepool.New(8)
	sat := gen.PaperSAT()      // (2, 4)
	ex6 := gen.PaperExample6() // different geometry class
	budget := cfg()
	budget.MaxSamples = 30_000 // different config key

	for _, step := range []struct {
		expr string
		cfg  solver.Config
		f    *cnf.Formula
	}{
		{"mc", cfg(), sat},
		{"mc", cfg(), ex6},  // same expr, different geometry -> cold
		{"mc", budget, sat}, // same expr+geometry, different budget -> cold
		{"rtw", cfg(), sat}, // different expr -> cold
	} {
		l, err := p.Acquire(step.expr, step.cfg, step.f)
		if err != nil {
			t.Fatal(err)
		}
		if l.Warm() {
			t.Errorf("acquire %s/%v unexpectedly warm", step.expr, step.f)
		}
		// Solve so the instance builds its engine: a pooled adapter
		// that never ran holds no banks and honestly leases cold.
		if _, err := l.Solve(context.Background()); err != nil {
			t.Fatal(err)
		}
		l.Release()
	}
	if st := p.Stats(); st.Hits != 0 || st.Misses != 4 {
		t.Errorf("want 0 hits / 4 misses, got %d / %d", st.Hits, st.Misses)
	}

	// Each class is now warm for its own key only. The seed is not part
	// of the key: a lease under another seed takes the same instance.
	reseeded := cfg()
	reseeded.Seed = 99
	for _, c := range []solver.Config{cfg(), reseeded} {
		l, err := p.Acquire("mc", c, sat)
		if err != nil {
			t.Fatal(err)
		}
		if !l.Warm() {
			t.Errorf("matching class not warm under seed %d", c.Seed)
		}
		l.Release()
	}
	if st := p.Stats(); st.Hits != 2 || st.Size != 4 {
		t.Errorf("want 2 hits and 4 idle instances, got %d / %d", st.Hits, st.Size)
	}
}

func TestNonReusableEnginesAreNotPooled(t *testing.T) {
	p := enginepool.New(4)
	f := gen.PaperSAT()
	for i := 0; i < 2; i++ {
		l, err := p.Acquire("dpll", cfg(), f)
		if err != nil {
			t.Fatal(err)
		}
		if l.Warm() {
			t.Error("stateless complete engine reported warm")
		}
		if _, err := l.Solve(context.Background()); err != nil {
			t.Fatal(err)
		}
		l.Release()
	}
	if st := p.Stats(); st.Size != 0 || st.Misses != 2 {
		t.Errorf("dpll must not occupy the pool: size %d misses %d", st.Size, st.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	p := enginepool.New(2)
	fs := []*cnf.Formula{
		cnf.FromClauses([]int{1}),
		cnf.FromClauses([]int{1, 2}),
		cnf.FromClauses([]int{1, 2, 3}),
	}
	for _, f := range fs {
		l, err := p.Acquire("mc", cfg(), f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Solve(context.Background()); err != nil {
			t.Fatal(err)
		}
		l.Release()
	}
	st := p.Stats()
	if st.Size != 2 || st.Evictions != 1 {
		t.Fatalf("capacity 2 after 3 releases: size %d evictions %d", st.Size, st.Evictions)
	}
	// The least recently released class (fs[0]) was evicted.
	l, err := p.Acquire("mc", cfg(), fs[0])
	if err != nil {
		t.Fatal(err)
	}
	if l.Warm() {
		t.Error("evicted class still warm")
	}
	l.Release()
	// The most recently released class survived.
	l, err = p.Acquire("mc", cfg(), fs[2])
	if err != nil {
		t.Fatal(err)
	}
	if !l.Warm() {
		t.Error("recently released class was evicted ahead of the LRU")
	}
	l.Release()
}

func TestZeroCapacityDisablesPooling(t *testing.T) {
	p := enginepool.New(0)
	f := gen.PaperSAT()
	for i := 0; i < 2; i++ {
		l, err := p.Acquire("mc", cfg(), f)
		if err != nil {
			t.Fatal(err)
		}
		if l.Warm() {
			t.Error("capacity-0 pool produced a warm lease")
		}
		l.Release()
	}
	if st := p.Stats(); st.Size != 0 {
		t.Errorf("capacity-0 pool retained %d instances", st.Size)
	}
}

func TestAcquireUnknownEngine(t *testing.T) {
	p := enginepool.New(2)
	if _, err := p.Acquire("no-such-engine", cfg(), gen.PaperSAT()); err == nil {
		t.Fatal("unknown engine acquired without error")
	}
}

// TestPoolStress hammers one pool from many goroutines across engines,
// geometry classes and seeds — the -race CI step runs exactly this
// test. The assertions are the pool invariants: every acquire is
// counted exactly once, the idle set never exceeds capacity, and every
// solve returns a sound verdict for its instance.
func TestPoolStress(t *testing.T) {
	p := enginepool.New(6)
	type class struct {
		expr string
		f    *cnf.Formula
		want solver.Status
	}
	classes := []class{
		{"mc", gen.PaperSAT(), solver.StatusSat},
		{"mc", gen.PaperExample6(), solver.StatusSat},
		{"rtw", gen.PaperSAT(), solver.StatusSat},
		{"rtw", gen.PaperExample5(), solver.StatusSat},
		{"sbl", gen.PaperExample6(), solver.StatusSat},
		{"dpll", gen.PaperUNSAT(), solver.StatusUnsat},
	}

	const goroutines = 8
	const iters = 24
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c := classes[(g+i)%len(classes)]
				// A seed per acquire: the pool key leaves it out, so
				// seeds share warm instances (seed 0 takes the default).
				seeded := cfg()
				seeded.Seed = uint64(g*iters + i)
				l, err := p.Acquire(c.expr, seeded, c.f)
				if err != nil {
					errs <- err
					return
				}
				r, err := l.Solve(context.Background())
				l.Release()
				if err != nil {
					errs <- fmt.Errorf("%s: %w", c.expr, err)
					return
				}
				if r.Status.Definitive() && r.Status != c.want {
					errs <- fmt.Errorf("%s on %v: got %v, want %v", c.expr, c.f, r.Status, c.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := p.Stats()
	if st.Size > st.Capacity {
		t.Errorf("idle set %d exceeds capacity %d", st.Size, st.Capacity)
	}
	if got := st.Hits + st.Misses; got != goroutines*iters {
		t.Errorf("hits+misses = %d, want %d acquires", got, goroutines*iters)
	}
	if st.Hits == 0 {
		t.Error("stress run produced no warm hits at all")
	}
	total := 0
	for _, n := range st.Occupancy {
		total += n
	}
	if total != st.Size {
		t.Errorf("occupancy sums to %d, size says %d", total, st.Size)
	}
}
