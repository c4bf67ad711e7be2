// Command nblperf is the workload benchmark of the NBL-SAT
// reproduction. One invocation runs one named workload in its own
// process: it sends a seed-generated job stream through one public
// surface of the program (the engine lease pool, the nblserve HTTP
// service, or nblrouter over two replicas), checks every answer, and
// prints each metric as `metric <name> <value> <unit>`, then one JSON
// result line.
//
// Usage:
//
//	nblperf -workload <name> -seed <n> -seconds <s> -trace <0|1> [-json out.json]
//	nblperf -agree <dirA> <dirB>
//
// A run sends a fixed number of jobs, sized so it measures about
// -seconds of work. With -trace 0 the metrics are the end-to-end ones.
// With -trace 1 they are the per-layer ones: the same jobs run in
// segments, and after each segment the benchmark times the public
// calls of the layers and fetches the span trees of its jobs.
// BENCHMARK.json at the repository root lists the workloads and
// metrics; run.sh builds this package from source and runs it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	_ "repro" // registers every engine, as the binaries do
	"repro/internal/enginepool"
)

const (
	// runBudget bounds a whole invocation, set-ups and probes included.
	runBudget = 170 * time.Second
	// nominalSeconds is the run length workload.jobs is sized for;
	// -seconds scales the job count from it.
	nominalSeconds = 20
	// overrun caps a pass at this multiple of -seconds of wall time, so
	// a heavily contended machine shortens a run instead of stretching
	// it past its time budget.
	overrun = 1.4
	// warmStream is the input stream of every warm-up pass.
	warmStream = 1
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	jsonPath string
	// jobs, when positive, replaces the job count of every pass,
	// warm-ups included. Tests only.
	jobs int
	// setups is the number of set-ups per plain run; setup_s is their
	// median. Three outside tests.
	setups int
	// dir is where the fleet keeps its verdict stores ("" selects
	// os.TempDir).
	dir string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is a result as -json stores it, tagged for -agree.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func main() {
	o := options{setups: 3}
	flag.StringVar(&o.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed generates the same jobs")
	flag.Float64Var(&o.seconds, "seconds", nominalSeconds, "seconds of work a run measures; scales the job count")
	flag.IntVar(&o.trace, "trace", 0, "1: report per-layer metrics instead of end-to-end metrics")
	flag.StringVar(&o.jsonPath, "json", "", "also write the result, tagged with workload and seed, to this file")
	agreeMode := flag.Bool("agree", false, "compare two directories of -json results: nblperf -agree <dirA> <dirB>")
	flag.Parse()

	if *agreeMode {
		if flag.NArg() != 2 {
			fatal(errors.New("-agree takes two result directories"))
		}
		worse, err := agree("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	res, err := run(ctx, o, os.Stdout)
	cancel()
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	if o.jsonPath != "" {
		blob, err := json.MarshalIndent(record{o.workload, o.seed, o.trace, res}, "", "  ")
		if err == nil {
			err = os.WriteFile(o.jsonPath, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nblperf:", err)
	os.Exit(2)
}

// run executes one workload and prints its metric lines to out.
func run(ctx context.Context, o options, out io.Writer) (result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return result{}, err
	}
	if o.trace != 0 && o.trace != 1 {
		return result{}, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds <= 0 {
		return result{}, errors.New("-seconds must be positive")
	}
	var (
		res result
		m   []namedMetric
	)
	if o.trace == 0 {
		res, m, err = measure(ctx, w, o)
	} else {
		res, m, err = measureLayers(ctx, w, o)
	}
	if err != nil {
		return result{}, err
	}
	res.Metrics = make(map[string]metric, len(m))
	for _, nm := range m {
		fmt.Fprintf(out, "metric %s %v %s\n", nm.name, nm.Value, nm.Unit)
		res.Metrics[nm.name] = nm.metric
	}
	return res, nil
}

type namedMetric struct {
	name string
	metric
}

// measure is a plain run: o.setups set-ups, then the measured pass on
// the last surface built.
func measure(ctx context.Context, w *workload, o options) (result, []namedMetric, error) {
	var setups []float64
	var s surface
	wrong := 0
	for i := 0; i < o.setups; i++ {
		if s != nil {
			s.close()
		}
		var d float64
		var warm *pass
		var err error
		s, d, warm, err = setUp(ctx, w, o)
		if err != nil {
			return result{}, nil, err
		}
		wrong += warm.wrong
		setups = append(setups, d)
	}
	runtime.GC()
	cpu0, _ := rusage()
	p := runPass(ctx, s, w.inputs(o.seed, 0), w.clients, jobCount(w, o), overrun*o.seconds, nil)
	cpu1, rssKiB := rusage()
	s.close()
	p.log(w.name)

	att := float64(p.attempted())
	latency := func(pm int) float64 {
		if v, ok := percentile(p.ms, p.failed+p.wrong, pm); ok {
			return v
		}
		return p.seconds() * 1e3 // a failed job missed every latency the window could show
	}
	return p.result(wrong), []namedMetric{
		{"jobs_per_s", metric{p.rate(), "jobs/s"}},
		{"latency_p50_ms", metric{latency(500), "ms"}},
		{"latency_tail_ms", metric{latency(w.tailPM), "ms"}},
		{"cpu_ms_per_job", metric{ratio(ms(cpu1-cpu0), att), "ms"}},
		{"success_ratio", metric{ratio(float64(len(p.ms)), att), "ratio"}},
		{"setup_s", metric{median(setups), "s"}},
		{"peak_rss_mb", metric{float64(rssKiB) / 1024, "MiB"}},
	}, nil
}

// jobCount is the number of jobs a measured pass sends.
func jobCount(w *workload, o options) int {
	if o.jobs > 0 {
		return o.jobs
	}
	return max(1, int(float64(w.jobs)*o.seconds/nominalSeconds+0.5))
}

// traceSegment is the number of jobs a traced run sends between two
// observation breaks: half the 256 completed traces each replica and
// the router keep, so every trace of a segment is still held when the
// segment ends.
const traceSegment = 128

// tracedPass sends jobs 0..limit-1 of a stream in segments, each
// followed by the observation of its answered jobs. Observing between
// segments keeps the benchmark's own parsing and trace fetches out of
// the jobs' timings. The program traces every job whether or not
// anyone asks for the trace, so the segments run the same code a plain
// pass does. maxSeconds, when positive, caps the sum of the segments'
// windows. It returns the merged pass and the number of answered jobs
// it could not observe.
func tracedPass(ctx context.Context, s surface, jobs func(int) job, clients, limit int, maxSeconds float64, tl *tally) (*pass, int) {
	traced, unobserved := &pass{}, 0
	for off := 0; off < limit && ctx.Err() == nil; off += traceSegment {
		left := 0.0 // no cap
		if maxSeconds > 0 {
			if left = maxSeconds - traced.window.Seconds(); left <= 0 {
				break
			}
		}
		segment := func(i int) job { return jobs(off + i) }
		p := runPass(ctx, s, segment, clients, min(traceSegment, limit-off), left, tl)
		for _, a := range p.answered {
			tl.add("core.samples_per_job", float64(a.r.res.Stats.Samples))
			attributed, ok := s.observe(ctx, segment(a.i), a.r, tl)
			if !ok {
				unobserved++
				continue
			}
			tl.add("trace.attributed_us", attributed)
			tl.add("trace.latency_us", a.wallUS)
		}
		traced.merge(p)
	}
	return traced, unobserved
}

// measureLayers is a traced run: a traced pass over the measured jobs,
// then the kernel probes of the library workloads.
func measureLayers(ctx context.Context, w *workload, o options) (result, []namedMetric, error) {
	s, _, warm, err := setUp(ctx, w, o)
	if err != nil {
		return result{}, nil, err
	}
	tl := newTally()
	before := scrape(ctx, s)
	runtime.GC()
	traced, unobserved := tracedPass(ctx, s, w.inputs(o.seed, 0), w.clients, jobCount(w, o), overrun*o.seconds, tl)
	after := scrape(ctx, s)
	s.close()
	traced.log(w.name + " (traced)")
	if unobserved > 0 {
		fmt.Fprintf(os.Stderr, "nblperf: %s: %d answered jobs could not be observed\n", w.name, unobserved)
	}
	if err := probeLibrary(ctx, w, o.seed, tl); err != nil {
		return result{}, nil, err
	}

	delta := func(names ...string) float64 {
		d := 0.0
		for _, n := range names {
			d += after[n] - before[n]
		}
		return d
	}
	n := float64(traced.attempted())
	return traced.result(warm.wrong), []namedMetric{
		{"noise.fill_ns_per_sample", metric{ratio(tl.sum("probe.fill_ns"), tl.sum("probe.samples")), "ns"}},
		{"noise.fill_bytes_per_sample", metric{tl.mean("probe.bytes"), "bytes"}},
		{"hyperspace.eval_ns_per_sample", metric{ratio(tl.sum("probe.block_ns")-tl.sum("probe.fill_ns"), tl.sum("probe.samples")), "ns"}},
		{"hyperspace.block_k", metric{tl.mean("probe.block_k"), "count"}},
		{"core.check_ms", metric{tl.mean("core.check_ms"), "ms"}},
		{"core.samples_per_s", metric{ratio(tl.sum("core.check_samples"), tl.sum("core.check_s")), "1/s"}},
		{"core.samples_per_job", metric{tl.mean("core.samples_per_job"), "count"}},
		{"core.worker_scaling", metric{tl.mean("core.worker_scaling"), "ratio"}},
		{"enginepool.acquire_us", metric{tl.mean("enginepool.acquire_us"), "us"}},
		{"enginepool.warm_ratio", metric{tl.mean("enginepool.warm"), "ratio"}},
		{"pipeline.simplify_ms", metric{tl.mean("pipeline.simplify_ms"), "ms"}},
		{"pipeline.decompose_ms", metric{tl.mean("pipeline.decompose_ms"), "ms"}},
		{"pipeline.components_per_job", metric{tl.mean("pipeline.components"), "count"}},
		{"pipeline.nm_after_ratio", metric{ratio(tl.sum("pipeline.nm_after"), tl.sum("pipeline.nm_before")), "ratio"}},
		{"pipeline.component_straggler", metric{tl.mean("pipeline.component_straggler"), "ratio"}},
		{"service.queue_wait_ms", metric{tl.mean("service.queue_wait_ms"), "ms"}},
		{"service.cache_lru_us", metric{tl.mean("service.cache_lru_us"), "us"}},
		{"service.cache_hit_ratio", metric{tl.mean("service.cache_hit"), "ratio"}},
		{"service.job_self_us", metric{tl.mean("service.job_self_us"), "us"}},
		{"service.refused", metric{tl.sum("service.refused"), "count"}},
		{"verdictstore.flushes_per_job", metric{ratio(delta("nblserve_store_flushes_total", "nblfleet_store_flushes_total"), n), "count"}},
		{"dimacs.parse_us", metric{tl.mean("dimacs.parse_us"), "us"}},
		{"dimacs.body_bytes", metric{tl.mean("dimacs.body_bytes"), "bytes"}},
		{"cnf.canonicalize_us", metric{tl.mean("cnf.canonicalize_us"), "us"}},
		{"router.submit_self_us", metric{tl.mean("router.submit_self_us"), "us"}},
		{"router.forward_self_us", metric{tl.mean("router.forward_self_us"), "us"}},
		{"router.failovers", metric{delta("nblrouter_failovers_total"), "count"}},
		{"trace.unattributed_share", metric{1 - ratio(tl.sum("trace.attributed_us"), tl.sum("trace.latency_us")), "ratio"}},
		{"solver.definitive_ratio", metric{ratio(float64(traced.decided), n), "ratio"}},
		{"host.steal_share", metric{traced.steal(), "ratio"}},
	}, nil
}

// scrape reads the surface's counters, if it exports any.
func scrape(ctx context.Context, s surface) map[string]float64 {
	h, ok := s.(*httpSurface)
	if !ok {
		return nil
	}
	c, err := h.counters(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nblperf: scraping /metrics:", err)
	}
	return c
}

// setUp builds the workload's surface on a fresh engine pool, so every
// set-up pays the same cold constructions, and ends with the warm-up
// pass. It returns the steal-corrected seconds both took. The heap is
// collected first, so a set-up neither pays for the garbage of the
// surface before it nor stacks its own peak on top of that garbage.
func setUp(ctx context.Context, w *workload, o options) (surface, float64, *pass, error) {
	enginepool.Default = enginepool.New(enginepool.DefaultCapacity)
	runtime.GC()
	before := hostTicks()
	start := time.Now()
	s, err := w.open(ctx, o.dir, o.seed)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("opening %s: %w", w.name, err)
	}
	warmJobs := w.warmJobs
	if o.jobs > 0 {
		warmJobs = min(warmJobs, o.jobs)
	}
	warm := runPass(ctx, s, w.inputs(o.seed, warmStream), w.clients, warmJobs, 0, nil)
	d := time.Since(start).Seconds() * (1 - hostTicks().sub(before).stealShare())
	warm.log(w.name + " (warm-up)")
	return s, d, warm, nil
}
