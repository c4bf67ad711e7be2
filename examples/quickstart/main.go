// Quickstart: decide a small CNF through the unified solver registry —
// one interface for the paper's NBL engines (Algorithms 1 and 2) and
// the classical baselines, plus a parallel portfolio racing them.
//
// Run: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	// The paper's Example 6: S = (x1 + x2) · (!x1 + !x2).
	// Satisfiable, with models x1·!x2 and !x1·x2.
	f := repro.FromClauses([]int{1, 2}, []int{-1, -2})
	fmt.Println("instance:", f)
	fmt.Println("engines: ", repro.Engines())

	// The Monte-Carlo NBL engine simulates 2·n·m independent noise
	// sources and estimates the mean of S_N = tau_N · Sigma_N
	// (Algorithm 1); FindModel additionally recovers a satisfying
	// assignment with at most n more reduced checks (Algorithm 2), each
	// sampling only what unit propagation leaves open. Here binding
	// x1 = 1 forces x2 = 0, so no reduced check is sampled.
	mc, err := repro.NewWith("mc", repro.Config{Seed: 42, MaxSamples: 1_000_000, FindModel: true})
	if err != nil {
		log.Fatal(err)
	}
	r, err := mc.Solve(context.Background(), f)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mc:        %v after %d samples\n", r, r.Stats.Samples)

	// Every other engine answers through the same call. The complete
	// baselines certify UNSAT too and always return a model on SAT.
	for _, name := range []string{"exact", "cdcl", "dpll"} {
		r, err := repro.Solve(context.Background(), name, f, repro.Config{Seed: 42})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s %v\n", name+":", r)
	}

	// The portfolio races a lineup in parallel goroutines and returns
	// the first definitive verdict, cancelling the losers. Deadlines
	// propagate into every engine's hot loop.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	race, err := repro.NewWith("portfolio", repro.Config{Members: []string{"mc", "cdcl", "walksat"}})
	if err != nil {
		log.Fatal(err)
	}
	r, err = race.Solve(ctx, f)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("portfolio: %v (winner: %s)\n", r, r.Engine)

	// And the paper's UNSAT example: S = (x1) · (!x1).
	g := repro.PaperExample7()
	r, err = repro.Solve(context.Background(), "mc", g, repro.Config{Seed: 43, MaxSamples: 1_000_000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unsat instance %s -> %v (mean %.3g)\n", g, r.Status, r.Stats.Mean)
}
