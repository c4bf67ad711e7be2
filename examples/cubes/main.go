// Satisfying-cube extraction (paper Section III-E, closing remark):
// instead of a full minterm, return a cube that leaves don't-care
// variables free. Each variable is probed under both polarities with
// reduced NBL checks; variables whose both subspaces remain satisfiable
// are candidates for omission. (The paper's literal rule alone is
// unsound — see the package documentation — so a three-valued
// evaluation guard confirms every drop.)
//
// Run: go run ./examples/cubes
package main

import (
	"fmt"
	"log"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/noise"
)

func main() {
	// f = (x1 + x2) · (x1 + !x2) over variables x1..x3: resolving the two
	// clauses forces x1 = 1, while x2 and x3 are true don't-cares. The
	// instance is kept at n·m = 6 so each reduced NBL check is decisive
	// within the sample budget (Section III-F: SNR ~ K'·sqrt(N)/(3·2^nm)).
	f := cnf.FromClauses([]int{1, 2}, []int{1, -2})
	f.NumVars = 3
	fmt.Println("instance:", f, "over x1..x3")

	eng, err := core.NewEngine(f, core.Options{
		Family:     noise.UniformUnit,
		Seed:       11,
		MaxSamples: 800_000,
	})
	if err != nil {
		log.Fatal(err)
	}

	res, err := eng.Assign()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Algorithm 2 minterm: %s (%d checks)\n", res.Assignment, len(res.Checks))

	cube, err := eng.Cube()
	if err != nil {
		log.Fatal(err)
	}
	free := 0
	for v := 1; v <= f.NumVars; v++ {
		if cube.Assignment.Get(cnf.Var(v)) == cnf.Unassigned {
			free++
		}
	}
	fmt.Printf("satisfying cube:     %s (%d don't-care variables, %d checks total)\n",
		cube.Assignment, free, len(cube.Checks))
	fmt.Printf("cube covers 2^%d = %d satisfying assignments at once\n",
		free, 1<<free)
}
