// Portfolio solving: race heterogeneous engines on the same instance in
// parallel goroutines and take the first definitive verdict, cancelling
// the losers through their contexts.
//
// The lineup mixes the three solver styles the paper compares in
// Section IV — complete search (cdcl), stochastic local search
// (walksat), and the NBL Monte-Carlo engine (mc) — whose runtimes
// differ by orders of magnitude per instance. Racing them buys the
// minimum of the three for the price of a few goroutines, which is the
// scaling pattern production SAT services use.
//
// Run: go run ./examples/portfolio
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	// A planted random 3-SAT instance near the hard density, too big for
	// the NBL engines' SNR but easy for cdcl and walksat: the race ends
	// as soon as either of them answers, while mc is still sampling.
	f, _ := repro.PlantedKSAT(7, 60, 250, 3)
	fmt.Printf("instance: %d variables, %d clauses (planted SAT)\n",
		f.NumVars, f.NumClauses())

	race, err := repro.NewWith("portfolio", repro.Config{Members: []string{"cdcl", "walksat", "mc"}, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	r, err := race.Solve(context.Background(), f)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("race:     %v in %v (winner: %s)\n", r.Status, r.Wall, r.Engine)
	if r.Assignment != nil {
		fmt.Println("verified:", r.Assignment.Satisfies(f))
	}

	// Deadlines propagate into every member's hot loop: an impossible
	// budget yields UNKNOWN with context.DeadlineExceeded instead of a
	// hang.
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	r, err = race.Solve(ctx, f)
	fmt.Printf("1µs race: %v after %v (err: %v)\n", r.Status, r.Wall, err)

	// The UNSAT side: dpll and cdcl can both certify it; first one wins.
	g := repro.PaperUNSAT()
	r, err = repro.Solve(context.Background(), "portfolio", g, repro.Config{Members: []string{"dpll", "cdcl"}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unsat:    %v in %v (winner: %s)\n", r.Status, r.Wall, r.Engine)
}
