package main

import (
	"context"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/cdcl"
	"repro/internal/cnf"
	"repro/internal/count"
	"repro/internal/dimacs"
	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/solver"
)

// job is one generated input plus the reference its answer is checked
// against. The program under test sees only f (library surfaces) or
// body (HTTP surfaces).
type job struct {
	f    *cnf.Formula
	body string // DIMACS document; empty for library jobs
	// seed is the engine seed of a library job.
	seed uint64
	// count marks a task=count job; wantCount is its exact model count.
	count     bool
	wantCount *big.Int
	// want is the reference verdict. mustDecide makes an UNKNOWN answer
	// a failed job; needModel makes a SAT answer without a model wrong.
	want       solver.Status
	mustDecide bool
	needModel  bool
}

// Checker outcomes: a wrong answer fails the whole run, an undecided
// one only counts against success_ratio.
var (
	errWrong     = errors.New("wrong answer")
	errUndecided = errors.New("undecided where a verdict is required")
)

// check reports whether r is an acceptable answer to j.
func check(j job, r solver.Result) error {
	if j.count {
		if r.Count == nil || r.Count.Cmp(j.wantCount) != 0 {
			return fmt.Errorf("%w: count %v, want %v", errWrong, r.Count, j.wantCount)
		}
		if r.Status != j.want {
			return fmt.Errorf("%w: count verdict %v, want %v", errWrong, r.Status, j.want)
		}
		return nil
	}
	switch {
	case r.Status == solver.StatusUnknown:
		if j.mustDecide {
			return errUndecided
		}
	case r.Status != j.want:
		return fmt.Errorf("%w: verdict %v, want %v", errWrong, r.Status, j.want)
	case r.Status == solver.StatusSat && r.Assignment == nil && j.needModel:
		return fmt.Errorf("%w: SAT without the requested model", errWrong)
	case r.Status == solver.StatusSat && r.Assignment != nil && !r.Assignment.Satisfies(j.f):
		return fmt.Errorf("%w: model does not satisfy the formula", errWrong)
	}
	return nil
}

// workload is one named traffic mix against one surface.
type workload struct {
	name, why string
	// clients is the number of closed-loop client goroutines.
	clients int
	// jobs is the job count of a nominalSeconds run: the job rate at the
	// seed commit on an uncontended 2-core machine, times 20 s.
	jobs int
	// tailPM is the per-mille percentile reported as latency_tail_ms:
	// tailPerMille(jobs).
	tailPM int
	// warmJobs sizes the warm-up pass each set-up ends with (at least
	// a second of work, so set-up time repeats closely).
	warmJobs int
	// inputs returns job i of the input stream (seed, stream). Stream 0
	// is the measured stream; warm-up passes draw from stream 1, so they
	// never pre-answer a measured input.
	inputs func(seed, stream uint64) func(i int) job
	// open builds the surface (for the fleet, including its primed
	// working set). Set-up time is open plus the warm-up pass.
	open func(ctx context.Context, dir string, seed uint64) (surface, error)
}

// workloads lists every workload in BENCHMARK.json order.
var workloads = []*workload{sampleUF20, paperAssign, serveCold, fleetHot}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (workloads: %v)", name, names)
}

// jobRand is the generator of job i of an input stream.
func jobRand(seed, stream uint64, i int) *rng.Xoshiro256 {
	return rng.New(rng.Mix(seed, stream, uint64(i)))
}

func statusOf(sat bool) solver.Status {
	if sat {
		return solver.StatusSat
	}
	return solver.StatusUnsat
}

// engineSeed draws a nonzero engine seed (zero selects the registry
// default, which would make every job share one seed).
func engineSeed(g *rng.Xoshiro256) uint64 {
	if s := g.Uint64(); s != 0 {
		return s
	}
	return 1
}

// scramble returns a renamed copy of f: variables permuted, literals
// shuffled inside each clause and, when clauses is set, the clause
// order shuffled too. Without the clause shuffle the copy is a renamed
// twin: cnf.Canonicalize maps it to f's fingerprint.
func scramble(g *rng.Xoshiro256, f *cnf.Formula, clauses bool) *cnf.Formula {
	perm := g.Perm(f.NumVars)
	out := cnf.New(f.NumVars)
	for _, c := range f.Clauses {
		d := make(cnf.Clause, len(c))
		for k, l := range c {
			d[k] = cnf.NewLit(cnf.Var(perm[l.Var()-1]+1), l.IsNeg())
		}
		g.Shuffle(len(d), func(a, b int) { d[a], d[b] = d[b], d[a] })
		out.Clauses = append(out.Clauses, d)
	}
	if clauses {
		g.Shuffle(len(out.Clauses), func(a, b int) {
			out.Clauses[a], out.Clauses[b] = out.Clauses[b], out.Clauses[a]
		})
	}
	return out
}

// sampleUF20 drives the Monte-Carlo sampler at SATLIB uf20-91 geometry
// through the lease pool. At 50k samples (one convergence round) every
// check is SNR-bound to UNKNOWN, so the job is pure sampler work.
var sampleUF20 = &workload{
	name: "sample-uf20",
	why: "1 client leasing mc (2 workers, 50k samples) on fresh uf20-91 random 3-SAT: " +
		"the sampler's noise fill and S_N evaluation dominate. Tail p75.",
	clients:  1,
	jobs:     40,
	tailPM:   750,
	warmJobs: 2,
	inputs: func(seed, stream uint64) func(int) job {
		return func(i int) job {
			g := jobRand(seed, stream, i)
			f := gen.RandomKSAT(g, 20, 91, 3)
			_, sat := cdcl.Solve(f)
			return job{f: f, seed: engineSeed(g), want: statusOf(sat)}
		}
	},
	open: func(context.Context, string, uint64) (surface, error) {
		return newLibrarySurface(solver.Config{MaxSamples: 50_000, Workers: 2}), nil
	},
}

// paperInstances is the paper-assign cycle: the paper's worked
// examples, each with its verdict and whether the default 4M budget
// must decide it (Example 5 is UNKNOWN at that budget).
var paperInstances = []struct {
	f      func() *cnf.Formula
	sat    bool
	decide bool
}{
	{gen.PaperSAT, true, true},
	{gen.PaperExample5, true, false},
	{gen.PaperExample6, true, true},
	{gen.PaperExample7, false, true},
	{gen.PaperUNSAT, false, true},
}

// paperAssign runs the paper's own operation, Algorithm 2 model
// recovery, on scrambled copies of the paper's instances.
var paperAssign = &workload{
	name: "paper-assign",
	why: "2 clients leasing mc with FindModel (Algorithm 2, 1 worker, 4M samples) on renamed paper examples: " +
		"evaluation and per-check overhead dominate. Tail p75.",
	clients:  2,
	jobs:     70,
	tailPM:   750,
	warmJobs: 5,
	inputs: func(seed, stream uint64) func(int) job {
		return func(i int) job {
			in := paperInstances[i%len(paperInstances)]
			g := jobRand(seed, stream, i)
			return job{
				f:          scramble(g, in.f(), true),
				seed:       engineSeed(g),
				want:       statusOf(in.sat),
				mustDecide: in.decide,
				needModel:  true,
			}
		}
	},
	open: func(context.Context, string, uint64) (surface, error) {
		return newLibrarySurface(solver.Config{FindModel: true, Workers: 1}), nil
	},
}

// serveCold sends distinct bodies to one nblserve with its defaults:
// every request misses the verdict cache.
var serveCold = &workload{
	name: "serve-cold",
	why: "2 clients POSTing distinct bodies to nblserve defaults: 90% decide on unions of 3-6 planted blocks, " +
		"10% counts. Pipeline, portfolio race and cache writes dominate. Tail p90.",
	clients:  2,
	jobs:     340,
	tailPM:   900,
	warmJobs: 20,
	inputs: func(seed, stream uint64) func(int) job {
		return func(i int) job {
			g := jobRand(seed, stream, i)
			if i%10 == 9 {
				f := gen.RandomKSAT(g, 16, 40, 3)
				n := count.Count(f)
				return job{f: f, body: dimacs.WriteString(f, ""), count: true,
					wantCount: n, want: statusOf(n.Sign() > 0), mustDecide: true}
			}
			blocks := make([]*cnf.Formula, 3+i%4)
			for b := range blocks {
				blocks[b], _ = gen.PlantedKSAT(g, 30, 120, 3)
			}
			f := scramble(g, gen.DisjointUnion(blocks...), true)
			return job{f: f, body: dimacs.WriteString(f, ""),
				want: solver.StatusSat, mustDecide: true, needModel: true}
		}
	},
	open: func(context.Context, string, uint64) (surface, error) {
		return openService(), nil
	},
}

// fleetWorkingSet is the number of formulas the fleet primes at set-up.
const fleetWorkingSet = 64

// workingSetKey separates the fleet's working set from the job streams.
const workingSetKey = 1 << 32

// workingSet returns the fleet's primed formulas and their bodies.
func workingSet(seed uint64) ([]*cnf.Formula, []string) {
	fs := make([]*cnf.Formula, fleetWorkingSet)
	bodies := make([]string, fleetWorkingSet)
	for k := range fs {
		fs[k], _ = gen.PlantedKSAT(jobRand(seed, workingSetKey, k), 50, 210, 3)
		bodies[k] = dimacs.WriteString(fs[k], "")
	}
	return fs, bodies
}

// fleetHot replays a primed working set through the router: verbatim
// repeats and renamed twins hit the owning replica's LRU, one job in
// ten is a fresh formula that solves and appends to the store.
var fleetHot = &workload{
	name: "fleet-hot",
	why: "2 clients through nblrouter over 2 replicas with stores, primed with 64 formulas: " +
		"60% repeats, 30% renamed twins, 10% cold. HTTP, parse, canonicalize and LRU dominate. Tail p99.",
	clients:  2,
	jobs:     10000,
	tailPM:   990,
	warmJobs: 200,
	inputs: func(seed, stream uint64) func(int) job {
		fs, bodies := workingSet(seed)
		return func(i int) job {
			g := jobRand(seed, stream, i)
			j := job{want: solver.StatusSat, mustDecide: true, needModel: true}
			k := g.Intn(fleetWorkingSet)
			switch {
			case i%10 < 6: // verbatim repeat
				j.f, j.body = fs[k], bodies[k]
			case i%10 < 9: // renamed twin
				j.f = scramble(g, fs[k], false)
				j.body = dimacs.WriteString(j.f, "")
			default: // cold
				j.f, _ = gen.PlantedKSAT(g, 50, 210, 3)
				j.body = dimacs.WriteString(j.f, "")
			}
			return j
		}
	},
	open: func(ctx context.Context, dir string, seed uint64) (surface, error) {
		s, err := openFleet(dir)
		if err != nil {
			return nil, err
		}
		fs, bodies := workingSet(seed)
		prime := runPass(ctx, s, func(k int) job {
			return job{f: fs[k], body: bodies[k], want: solver.StatusSat, mustDecide: true, needModel: true}
		}, 2, len(fs), 0, nil)
		if prime.firstErr != nil {
			s.close()
			return nil, fmt.Errorf("priming the working set: %w", prime.firstErr)
		}
		return s, nil
	},
}
