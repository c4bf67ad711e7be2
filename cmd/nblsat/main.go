// Command nblsat is the NBL-SAT solver CLI: it reads a DIMACS CNF
// instance and decides it with any engine in the registry.
//
// Usage:
//
//	nblsat [flags] [file.cnf]               (stdin when no file is given)
//	nblsat -task equivalent a.cnf b.cnf     (equivalence needs two files)
//
// Tasks (-task): decide (default) asks SAT/UNSAT; count asks for the
// exact model count; weighted-count asks for the clause-cover-weighted
// count K' from the paper's E[S_N] = K'·σ^(2nm) identity; equivalent
// asks whether two CNFs agree on every assignment (lowered to a decide
// on their miter — UNSAT certifies equivalence). Without -engine,
// decide runs mc and the counting tasks run the engine nblserve picks
// for them (pre(count), pre(wcount)); an -engine that cannot run the
// task is an error (exit 2), as it is a 400 at nblserve.
//
// Engines (see repro.Engines()): mc (Monte-Carlo NBL, default), exact
// (infinite-sample NBL), rtw (exact telegraph waves), sbl
// (sinusoid carriers), analog (compiled block netlist), dpll, cdcl,
// walksat, hybrid (NBL-guided DPLL), and portfolio (parallel race of
// -members). Meta-engine expressions compose around any of them:
// "pre(mc)" runs the preprocess-and-decompose pipeline in front of the
// Monte-Carlo engine; -preprocess is shorthand for wrapping -engine in
// pre(...), unless it already is a pipeline.
//
// Exit codes follow the SAT competition convention: 10 when the verdict
// is SATISFIABLE, 20 when UNSATISFIABLE, 0 when UNKNOWN, and 2 on usage
// or I/O errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/dimacs"
	"repro/internal/obs"
	"repro/internal/solver"
)

// SAT-competition exit codes.
const (
	exitUnknown = 0
	exitSat     = 10
	exitUnsat   = 20
	exitError   = 2
)

func main() {
	var (
		engine  = flag.String("engine", "", "engine, default mc (pre(count)/pre(wcount) when counting): "+strings.Join(repro.Engines(), "|"))
		family  = flag.String("family", "unit", "noise family for mc/analog: half|unit|gauss|rtw")
		seed    = flag.Uint64("seed", 1, "experiment seed")
		samples = flag.Int64("samples", 4_000_000,
			"sample/step budget per NBL check (mc, rtw, sbl, analog)")
		workers = flag.Int("workers", 1, "parallel sampling workers (mc)")
		theta   = flag.Float64("theta", 4, "SAT decision threshold in standard errors")
		assign  = flag.Bool("assign", false,
			"recover a satisfying assignment from check-style NBL engines (Algorithm 2)")
		members = flag.String("members", "",
			"comma-separated lineup for -engine portfolio (default cdcl,mc,walksat)")
		timeout = flag.Duration("timeout", 0,
			"wall-clock budget for the solve; expiry yields UNKNOWN (0 = none)")
		alloc = flag.String("alloc", "geometric4", "sbl carrier allocation: geometric4|linear")
		prep  = flag.Bool("preprocess", false,
			"run the solve pipeline (simplify + component decomposition) in front "+
				"of -engine; shrinking n·m cuts the NBL sample budget exponentially. "+
				"Shorthand for -engine pre(<engine>)")
		sol = flag.Bool("sol", false,
			"emit the verdict in SAT-competition format (s/v lines) on stdout")
		taskName = flag.String("task", "decide",
			"what to produce: decide|count|weighted-count|equivalent "+
				"(equivalent takes two CNF file arguments)")
		trace = flag.Bool("trace", false,
			"print the solve's span tree (stage durations, per-check SNR "+
				"trajectory tail) after the verdict")
	)
	flag.Parse()
	solMode = *sol

	task, err := repro.ParseTask(*taskName)
	if err != nil {
		fatal(err)
	}

	f, err := readTaskInstance(task)
	if err != nil {
		fatal(err)
	}
	info := os.Stdout
	if solMode {
		info = os.Stderr // keep stdout clean for the s/v certificate
	}
	fmt.Fprintf(info, "instance: %d variables, %d clauses, %d literals\n",
		f.NumVars, f.NumClauses(), f.NumLiterals())

	engineName := engineExpr(*engine, task, *prep)

	cfg := repro.Config{
		Seed: *seed, MaxSamples: *samples, Workers: *workers, Theta: *theta,
		Family: *family, Allocation: *alloc, FindModel: *assign,
		Members: solver.ParseMembers(*members),
	}
	if task.Counting() {
		// Equivalence is already lowered to a plain decide on the miter;
		// only counting tasks change what the engine must produce.
		cfg.Task = task
	}
	s, err := repro.NewWith(engineName, cfg)
	if err != nil {
		fatal(err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// report() exits the process (defers would not run), so the trace
	// tree is finished and printed inline right after the solve.
	var tr *obs.Trace
	var root *obs.Span
	if *trace {
		tr = obs.NewTrace("")
		root = tr.Root("solve")
		root.SetAttr("engine", engineName)
		ctx = obs.ContextWithSpan(ctx, root)
	}
	res, err := s.Solve(ctx, f)
	if tr != nil {
		root.SetAttr("status", res.Status.String())
		root.Finish()
		obs.WriteTree(info, tr.JSON())
	}
	if *prep && res.Stats.NMBefore > 0 {
		fmt.Fprintf(info, "preprocess: n·m %d -> %d, %d component(s)\n",
			res.Stats.NMBefore, res.Stats.NMAfter, res.Stats.Components)
	}
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(info, "%s: %v after %v (stats: %+v)\n", engineName, err, res.Wall, res.Stats)
			report(task, f, res) // UNKNOWN
			return
		}
		fatal(err)
	}
	verdictBy := res.Engine // for portfolio this names the winning member
	if verdictBy != engineName {
		verdictBy = engineName + " (won by " + res.Engine + ")"
	}
	fmt.Fprintf(info, "engine %s: %v in %v (stats: %+v)\n", verdictBy, res.Status, res.Wall, res.Stats)
	report(task, f, res)
}

// solMode is set from the -sol flag; report honors it by emitting
// SAT-competition s/v lines instead of prose.
var solMode bool

// engineExpr picks the engine expression to build: engine, or the
// task's default (mc for decide, nblserve's pick for the counting
// tasks), wrapped in pre(...) when preprocess is set and it is not
// already a pipeline. The pipeline meta-engine simplifies,
// short-circuits on preprocessing-proved verdicts, decomposes into
// variable-disjoint components, fans them out across the wrapped
// engine, and lifts component models back to the input variable
// space; a second one around it would only simplify twice.
func engineExpr(engine string, task repro.Task, preprocess bool) string {
	if engine == "" {
		engine = task.DefaultEngine("mc")
	}
	if preprocess && !strings.HasPrefix(engine, "pre(") {
		engine = "pre(" + engine + ")"
	}
	return engine
}

// report prints the verdict and exits with the SAT-competition code.
// Counting tasks print the count; equivalence prints the lifted verdict
// (the miter's UNSAT means the pair is equivalent) but keeps the
// underlying miter status for the exit code.
func report(task repro.Task, f *repro.Formula, r repro.Result) {
	if task == repro.TaskEquivalent {
		switch r.Status {
		case repro.StatusUnsat:
			fmt.Println("EQUIVALENT")
		case repro.StatusSat:
			fmt.Println("NOT EQUIVALENT")
		default:
			fmt.Println("UNKNOWN")
		}
		exit(r.Status)
	}
	if (task == repro.TaskCount || task == repro.TaskWeightedCount) && r.Count != nil {
		label := "models"
		if task == repro.TaskWeightedCount {
			label = "K'"
		}
		fmt.Printf("%s: %s\n", label, r.Count)
		exit(r.Status)
	}
	if solMode {
		if r.Status == repro.StatusSat && r.Assignment == nil {
			// Check-style NBL engines certify SAT without a model; there
			// are no v-lines to print (rerun with -assign for a model).
			fmt.Println("s SATISFIABLE")
		} else if err := dimacs.WriteSolution(os.Stdout, r.Status.String(), r.Assignment); err != nil {
			fatal(err)
		}
	} else {
		switch {
		case r.Status == repro.StatusSat && r.Assignment != nil:
			fmt.Printf("SAT with %s (verified: %v)\n", r.Assignment, r.Assignment.Satisfies(f))
		case r.Status == repro.StatusSat:
			fmt.Println("SAT")
		case r.Status == repro.StatusUnsat:
			fmt.Println("UNSAT")
		default:
			fmt.Println("UNKNOWN")
		}
	}
	exit(r.Status)
}

// exit maps a verdict to its SAT-competition exit code.
func exit(status repro.Status) {
	switch status {
	case repro.StatusSat:
		os.Exit(exitSat)
	case repro.StatusUnsat:
		os.Exit(exitUnsat)
	default:
		os.Exit(exitUnknown)
	}
}

// readTaskInstance reads the solve input for the given task: one CNF
// (file argument or stdin) for decide and the counting tasks, or two
// CNF files lowered to their miter for equivalence.
func readTaskInstance(task repro.Task) (*repro.Formula, error) {
	if task != repro.TaskEquivalent {
		return readInstance(flag.Arg(0))
	}
	if flag.NArg() != 2 {
		return nil, fmt.Errorf("-task equivalent needs exactly 2 CNF file arguments, got %d", flag.NArg())
	}
	a, err := readInstance(flag.Arg(0))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", flag.Arg(0), err)
	}
	b, err := readInstance(flag.Arg(1))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", flag.Arg(1), err)
	}
	return repro.EquivalenceCNF(a, b)
}

func readInstance(path string) (*repro.Formula, error) {
	if path == "" {
		return repro.ReadDIMACS(os.Stdin)
	}
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	return repro.ReadDIMACS(file)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nblsat:", err)
	os.Exit(exitError)
}
