// Package portfolio implements a parallel portfolio solver over the
// engine registry: it races any set of registered engines on the same
// formula in separate goroutines and returns the first definitive
// verdict (SAT or UNSAT), cancelling the losers through their contexts.
//
// This is the multi-backend scaling lever the paper's Section IV
// comparison implies: complete search (cdcl), stochastic local search
// (walksat) and the NBL Monte-Carlo engine have wildly different cost
// profiles per instance, and racing them buys the minimum of the three
// runtimes for the price of a few goroutines. Because every engine
// honors context cancellation in its hot loop, the portfolio's losers
// stop within a bounded amount of extra work.
package portfolio

import (
	"context"
	"fmt"

	"repro/internal/cnf"
	"repro/internal/enginepool"
	"repro/internal/solver"
)

// DefaultMembers is the lineup raced when none is configured: a complete
// solver that certifies both verdicts, the paper's Monte-Carlo NBL
// engine, and a local-search sprinter for easy satisfiable instances.
var DefaultMembers = []string{"cdcl", "mc", "walksat"}

func init() {
	solver.Register("portfolio", func(_ string, cfg solver.Config) (solver.Solver, error) {
		return New(cfg), nil
	})
}

// Portfolio races a set of registry engines. Construct with New or via
// solver.NewWith("portfolio", solver.Config{Members: ...}).
type Portfolio struct {
	cfg solver.Config
}

// New returns a portfolio over cfg.Members (DefaultMembers when empty).
// Every member inherits cfg, so one Config seeds and budgets the whole
// lineup. Members are leased from the shared engine pool per race, so
// repeated races on a stable geometry reuse warm noise banks instead
// of rebuilding them.
func New(cfg solver.Config) *Portfolio {
	return &Portfolio{cfg: cfg}
}

// Solve implements solver.Solver. The first member to return a
// definitive Status wins: its Result is returned with Engine naming the
// winning member and the losers' effort counters folded into Stats.
// When no member is definitive (e.g. a lineup of local searchers on an
// unsatisfiable instance) the combined Result has StatusUnknown, and
// any member's genuine failure (a rejected instance, a bad config — not
// a cancelled loser) surfaces as the error so a misconfigured lineup is
// never mistaken for an honest budget-exhausted unknown. A member whose
// factory refuses the shared Config (rtw under FindModel, say) is such
// a failed member: the rest of the lineup still races.
func (p *Portfolio) Solve(ctx context.Context, f *cnf.Formula) (solver.Result, error) {
	members := p.cfg.Members
	if len(members) == 0 {
		members = DefaultMembers
	}
	type outcome struct {
		r   solver.Result
		err error
	}
	results := make(chan outcome, len(members))
	var leases []*enginepool.Lease
	for _, name := range members {
		l, err := enginepool.Default.Acquire(name, p.cfg, f)
		if err != nil {
			results <- outcome{solver.Result{Engine: name}, err}
			continue
		}
		leases = append(leases, l)
	}

	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	for _, l := range leases {
		go func(l *enginepool.Lease) {
			r, err := l.Solve(raceCtx)
			l.Release()
			results <- outcome{r, err}
		}(l)
	}

	var (
		winner    outcome
		won       bool
		agg       solver.Stats
		unknown   bool
		memberErr error
	)
	// Collect every member before returning: after cancel() the losers
	// abort within one hot-loop poll, so this wait is bounded and leaves
	// no goroutine running past Solve (each goroutine releases its lease
	// after its member's Solve returns, so no lease outlives the race).
	for range members {
		o := <-results
		if !won && o.err == nil && o.r.Status.Definitive() {
			winner, won = o, true
			cancel()
			continue
		}
		// Stats.Add sums only the counters; keep the first sampling
		// member's statistic so a no-winner Result still reports the
		// S_N mean that was actually measured.
		if agg.StdErr == 0 && o.r.Stats.StdErr != 0 {
			agg.Mean, agg.StdErr = o.r.Stats.Mean, o.r.Stats.StdErr
		}
		agg.Add(o.r.Stats)
		switch {
		case o.err == nil:
			unknown = true
		case raceCtx.Err() != nil && ctx.Err() == nil:
			// Cancelled loser, not a real failure.
		case memberErr == nil:
			memberErr = fmt.Errorf("portfolio %s: %w", o.r.Engine, o.err)
		}
	}

	if won {
		r := winner.r
		r.Stats.Add(agg) // total effort across the race
		return r, nil
	}
	if err := ctx.Err(); err != nil {
		return solver.Result{Stats: agg}, err
	}
	if unknown && memberErr == nil {
		// Every member completed its budget without a verdict: an honest
		// shrug, not a failure.
		return solver.Result{Status: solver.StatusUnknown, Stats: agg}, nil
	}
	return solver.Result{Stats: agg}, memberErr
}
