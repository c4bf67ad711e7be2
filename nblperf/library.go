package main

import (
	"context"
	"errors"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/enginepool"
	"repro/internal/hyperspace"
	"repro/internal/noise"
	"repro/internal/solver"
)

// surface is one public entry point of the program under test.
type surface interface {
	// solve sends j and returns the answer. In the traced pass (tl
	// non-nil) it also records timings it can take without slowing the
	// call down.
	solve(ctx context.Context, j job, tl *tally) (reply, error)
	// observe records the per-layer view of an answered job of a traced
	// pass, once the pass is over. It returns the microseconds of the
	// job's latency that the timed calls and spans account for, and
	// false when it could not observe the job.
	observe(ctx context.Context, j job, r reply, tl *tally) (attributedUS float64, ok bool)
	close()
}

// reply is a surface's answer to one job.
type reply struct {
	res solver.Result
	// id is the service job id (HTTP surfaces).
	id string
	// attrUS is the time a library call spent inside timed calls.
	attrUS float64
}

// librarySurface leases the mc engine from the process-wide pool, as
// every layer of the program does.
type librarySurface struct{ cfg solver.Config }

func newLibrarySurface(cfg solver.Config) *librarySurface { return &librarySurface{cfg: cfg} }

func (s *librarySurface) solve(ctx context.Context, j job, tl *tally) (reply, error) {
	cfg := s.cfg
	cfg.Seed = j.seed
	start := time.Now()
	lease, err := enginepool.Default.Acquire("mc", cfg, j.f)
	if err != nil {
		return reply{}, err
	}
	acquired := time.Now()
	res, err := lease.Solve(ctx)
	solved := time.Now()
	warm := lease.Warm()
	lease.Release()
	if errors.Is(err, core.ErrInconsistent) {
		// Algorithm 2's reduced checks contradicted each other: the
		// engine's documented "raise the budget" outcome, a shrug like
		// UNKNOWN rather than a failure.
		res.Status, err = solver.StatusUnknown, nil
	}
	if tl != nil {
		check := solved.Sub(acquired)
		tl.add("enginepool.acquire_us", us(acquired.Sub(start)))
		tl.add("enginepool.warm", indicator(warm))
		tl.add("core.check_ms", ms(check))
		tl.add("core.check_samples", float64(res.Stats.Samples))
		tl.add("core.check_s", check.Seconds())
	}
	return reply{res: res, attrUS: us(solved.Sub(start))}, err
}

func (s *librarySurface) observe(_ context.Context, _ job, r reply, _ *tally) (float64, bool) {
	return r.attrUS, true
}

func (s *librarySurface) close() {}

// timedSource is a hyperspace.SampleSource that times every
// FillBlockAt of the bank it wraps, so a pass of StepBlockAt calls
// splits into fill and evaluate time with one clock pair per fill.
type timedSource struct {
	*noise.Bank
	fill time.Duration
}

func (t *timedSource) FillBlockAt(base uint64, k int, pos, neg []float64) {
	start := time.Now()
	t.Bank.FillBlockAt(base, k, pos, neg)
	t.fill += time.Since(start)
}

// probeKernel evaluates S_N of f over at least samples samples in
// blocks of the engine's block size, on the engine's default noise
// family, and records the fill and evaluate split, steal-corrected
// like every time the benchmark takes.
func probeKernel(f *cnf.Formula, seed uint64, samples int64, tl *tally) {
	n, m := f.NumVars, f.NumClauses()
	src := &timedSource{Bank: noise.NewBank(noise.UniformUnit, seed, n, m)}
	ev := hyperspace.New(f, src)
	buf := make([]float64, hyperspace.BlockSize(n, m))
	var block time.Duration
	var done int64
	before := hostTicks()
	for done < samples {
		start := time.Now()
		ev.StepBlockAt(uint64(done), buf)
		block += time.Since(start)
		done += int64(len(buf))
	}
	kept := 1 - hostTicks().sub(before).stealShare()
	tl.add("probe.samples", float64(done))
	tl.add("probe.fill_ns", float64(src.fill)*kept)
	tl.add("probe.block_ns", float64(block)*kept)
	tl.add("probe.bytes", float64(2*n*m*8))
	tl.add("probe.block_k", float64(len(buf)))
}

// workerScaling is the chunk sampler's parallel efficiency on f:
// samples/s at 2 workers over twice the samples/s at 1 worker.
func workerScaling(ctx context.Context, f *cnf.Formula, seed uint64, samples int64) (float64, error) {
	rate := func(workers int) (float64, error) {
		s, err := solver.NewWith("mc", solver.Config{Seed: seed, MaxSamples: samples, Workers: workers})
		if err != nil {
			return 0, err
		}
		before := hostTicks()
		start := time.Now()
		res, err := s.Solve(ctx, f)
		secs := time.Since(start).Seconds() * (1 - hostTicks().sub(before).stealShare())
		return float64(res.Stats.Samples) / secs, err
	}
	one, err := rate(1)
	if err != nil {
		return 0, err
	}
	two, err := rate(2)
	return two / (2 * one), err
}

// probeLibrary runs the kernel probe, and on the uf20 workload the
// worker-scaling pair, on the first jobs of the measured stream.
func probeLibrary(ctx context.Context, w *workload, seed uint64, tl *tally) error {
	jobs := w.inputs(seed, 0)
	switch w {
	case sampleUF20:
		for i := 0; i < 2; i++ {
			j := jobs(i)
			probeKernel(j.f, j.seed, 50_000, tl)
			s, err := workerScaling(ctx, j.f, j.seed, 50_000)
			if err != nil {
				return err
			}
			tl.add("core.worker_scaling", s)
		}
	case paperAssign:
		for i := range paperInstances {
			j := jobs(i)
			probeKernel(j.f, j.seed, 500_000, tl)
		}
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func indicator(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
