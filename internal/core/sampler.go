package core

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/cnf"
	"repro/internal/hyperspace"
	"repro/internal/noise"
	"repro/internal/rng"
	"repro/internal/solver"
	"repro/internal/stats"
)

// The batch size of the block sampling kernel is chosen per instance
// geometry by hyperspace.BlockSize: large enough to amortize the bank
// dispatch and evaluator scratch setup, small enough that cancellation
// polls (which happen at block boundaries) stay responsive and the SoA
// block buffers stay cache-resident (Options.Block overrides).

// workerState is one worker's persistent sampling machinery: a noise
// bank, the evaluator wired to it, and the block sample buffer. It is
// built once per (engine, worker) and re-seeded/re-bound for every
// decision check instead of being reallocated — Algorithm 2 issues n+1
// checks per solve and the hybrid brancher thousands, so rebuilding the
// 2·n·m-source bank per check was pure overhead.
type workerState struct {
	bank *noise.Bank
	ev   *hyperspace.Evaluator
	buf  []float64
}

// checkSeed derives the noise seed for a decision check with a
// SplitMix64 finalizer chain (rng.Mix is injective in its final
// identifier for a fixed prefix), so distinct checks provably draw from
// distinct keys. The key is (engine seed, check sequence) only: every
// worker samples the SAME counter-addressed streams and workers
// partition the sample-index axis instead, which is what makes verdicts
// invariant to the worker count.
func checkSeed(seed, seq uint64) uint64 {
	return rng.Mix(seed, seq)
}

// evaluator returns worker w's evaluator, re-seeded for check seq and
// re-bound to bound. The first use per worker builds the bank and
// evaluator; every later check reuses them in place.
func (e *Engine) evaluator(bound cnf.Assignment, seq uint64, w int) *hyperspace.Evaluator {
	for len(e.workers) <= w {
		e.workers = append(e.workers, workerState{})
	}
	st := &e.workers[w]
	seed := checkSeed(e.opts.Seed, seq)
	if st.bank == nil {
		st.bank = noise.NewBank(e.opts.Family, seed, e.f.NumVars, e.f.NumClauses())
		st.ev = hyperspace.New(e.f, st.bank)
		k := e.opts.Block
		if k <= 0 {
			k = hyperspace.BlockSize(e.f.NumVars, e.f.NumClauses())
		}
		st.buf = make([]float64, k)
	} else {
		st.bank.Reseed(seed)
	}
	st.ev.BindAll(bound)
	return st.ev
}

// sample estimates mean(S_N) under the given bindings and applies the
// significant-digit convergence rule, returning the final mean, its
// standard error, total samples, and whether the convergence rule
// (rather than the budget) stopped the run.
//
// The sample-index axis is cut into fixed-size chunks (the block size,
// which depends only on the instance geometry and Options.Block —
// never on the worker count). A convergence round covers a fixed range
// of chunks; workers
// claim chunks dynamically from an atomic counter (deterministic
// work-stealing: WHO evaluates a chunk is scheduling-dependent, but
// WHAT a chunk contains is a pure function of its index), accumulate
// each chunk into its own slot, and the coordinator merges the slots
// in chunk order after the round. Every float therefore sees the same
// operands in the same order regardless of Workers or scheduling:
// verdicts and statistics are bit-identical from workers=1 to
// workers=N — the conformance suite pins this.
//
// A progress hook carried by ctx is looked up once and called at every
// merged round boundary, from this coordinating goroutine only, so it
// never sees a partial round and never changes results.
func (e *Engine) sample(ctx context.Context, bound cnf.Assignment, seq uint64) (mean, stderr float64, samples int64, converged bool, err error) {
	progress := solver.ProgressFromContext(ctx)
	var total stats.Welford
	// A check that starts after its race is decided (a portfolio member
	// whose rival has already won) stops here, as the round loop's first
	// check would, before a worker builds its bank or its first block
	// allocates the evaluator's scratch.
	if err = ctx.Err(); err != nil {
		return total.Mean(), total.StdErr(), total.Count(), false, err
	}
	workers := e.opts.Workers
	evs := make([]*hyperspace.Evaluator, workers)
	for w := 0; w < workers; w++ {
		evs[w] = e.evaluator(bound, seq, w)
	}

	conv := &stats.Convergence{
		Digits:     e.opts.Digits,
		Window:     4,
		MaxSamples: e.opts.MaxSamples,
	}

	// A round covers exactly perRound consecutive sample indices — never
	// rounded up to a chunk multiple — so the set of samples drawn is a
	// pure function of CheckEvery: the same for every block size and
	// every worker count (the block-size conformance test pins this).
	// The round's last chunk is truncated when chunk does not divide
	// perRound.
	perRound := e.opts.CheckEvery
	if perRound < 1 {
		perRound = 1
	}
	chunk := int64(len(e.workers[0].buf))
	chunksPerRound := (perRound + chunk - 1) / chunk

	partial := make([]stats.Welford, chunksPerRound)
	var next atomic.Int64
	for round := int64(0); !conv.Exhausted(total.Count()); round++ {
		if err = ctx.Err(); err != nil {
			return total.Mean(), total.StdErr(), total.Count(), false, err
		}
		roundBase := round * perRound
		next.Store(0)
		for i := range partial {
			partial[i] = stats.Welford{}
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ev := evs[w]
				buf := e.workers[w].buf
				for {
					// On large instances a single round can take seconds;
					// poll cancellation at every chunk boundary so a lost
					// portfolio race does not keep burning a full round.
					// The coordinator re-checks ctx after merging, so an
					// abbreviated round always surfaces as an error and
					// deterministic replay of successful runs is preserved.
					if ctx.Err() != nil {
						return
					}
					c := next.Add(1) - 1
					if c >= chunksPerRound {
						return
					}
					off := c * chunk
					k := chunk
					if rem := perRound - off; rem < k {
						k = rem
					}
					ev.StepBlockAt(uint64(roundBase+off), buf[:k])
					partial[c].AddN(buf[:k])
				}
			}(w)
		}
		wg.Wait()
		for i := range partial {
			total.Merge(partial[i])
		}
		// Re-check after the round: workers abbreviate on cancellation,
		// and a truncated round must surface as an error, never feed the
		// convergence rule as if it were a full round.
		if err = ctx.Err(); err != nil {
			return total.Mean(), total.StdErr(), total.Count(), false, err
		}
		if progress != nil {
			// Round boundary: workers are parked, total is consistent.
			progress(solver.Stats{Samples: total.Count(), Mean: total.Mean(), StdErr: total.StdErr()})
		}
		if total.Count() >= e.opts.MinSamples && conv.Check(total.Mean()) {
			converged = true
			break
		}
	}
	return total.Mean(), total.StdErr(), total.Count(), converged, nil
}
