// Package solver defines the unified solving API every engine in the
// repository implements, plus the name-keyed registry that makes the
// engines discoverable at run time.
//
// The design collapses the historical per-engine entry points
// (core.NewEngine(...).Check(), dpll.Solve(f), walksat.Solve(f, opts),
// ...) into one interface:
//
//	Solve(ctx context.Context, f *cnf.Formula) (Result, error)
//
// with a three-valued Status (SAT / UNSAT / UNKNOWN), an optional model,
// and a common Stats block. Engines register themselves under a short
// name in an init function of their own package; anything that imports
// the engine packages (the repro facade, the CLI, the portfolio racer)
// can then construct any of them with NewWith(name, cfg) and race or
// swap them freely.
//
// Cancellation is part of the contract: every registered engine checks
// ctx in its hot loop (sampling, search, flipping) and returns promptly
// with ctx.Err() when the context is cancelled or its deadline expires.
package solver

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cnf"
	"repro/internal/obs"
)

// Task selects what question a solve answers about the formula. The
// registry is task-typed: every engine registers with the tasks it
// supports (plain decide is the default), and NewWith rejects an
// engine/task mismatch at construction instead of silently deciding.
type Task string

// The solve tasks.
const (
	// TaskDecide is classical satisfiability: SAT / UNSAT / UNKNOWN,
	// optionally with a model. The zero value of Config.Task defaults
	// here, so every pre-task-model caller keeps its behavior.
	TaskDecide Task = "decide"
	// TaskCount is exact model counting (#SAT): Result.Count carries
	// the number of satisfying assignments, and Status is the derived
	// verdict (count > 0 -> SAT, count = 0 -> UNSAT).
	TaskCount Task = "count"
	// TaskWeightedCount is the clause-cover-weighted count K' — the
	// coefficient in the paper's E[S_N] = K'·sigma^(2nm) — carried the
	// same way in Result.Count.
	TaskWeightedCount Task = "weighted-count"
	// TaskEquivalent asks whether two circuits (or CNF bodies) compute
	// the same function. It is not an engine task: callers (the
	// service, the CLI) lower it to TaskDecide on a miter CNF built by
	// internal/logic, so NewWith rejects it with a pointer there.
	TaskEquivalent Task = "equivalent"
)

// ParseTask validates a task name from an untrusted surface (HTTP
// query, CLI flag). The empty string is TaskDecide.
func ParseTask(s string) (Task, error) {
	switch Task(s) {
	case "", TaskDecide:
		return TaskDecide, nil
	case TaskCount, TaskWeightedCount, TaskEquivalent:
		return Task(s), nil
	}
	return "", fmt.Errorf("solver: unknown task %q (tasks: decide, count, weighted-count, equivalent)", s)
}

// Counting reports whether the task produces a model count.
func (t Task) Counting() bool { return t == TaskCount || t == TaskWeightedCount }

// DefaultEngine names the engine a request for the task runs when it
// names none: the exact counters behind the count-safe pipeline for the
// counting tasks, and decide, the caller's default, otherwise (an
// equivalence is a decide on its miter). nblserve and nblsat both pick
// their engine here.
func (t Task) DefaultEngine(decide string) string {
	switch t {
	case TaskCount:
		return "pre(count)"
	case TaskWeightedCount:
		return "pre(wcount)"
	}
	return decide
}

// ParseMembers splits a comma-separated portfolio lineup from an
// untrusted surface (HTTP query, CLI flag), dropping blank entries.
func ParseMembers(list string) []string {
	var out []string
	for _, m := range strings.Split(list, ",") {
		if m = strings.TrimSpace(m); m != "" {
			out = append(out, m)
		}
	}
	return out
}

// Status is the three-valued verdict of a solve.
type Status int8

const (
	// StatusUnknown means the engine could not decide within its budget
	// (e.g. local search found no model, or the run was cancelled).
	StatusUnknown Status = iota
	// StatusSat means a satisfying assignment exists.
	StatusSat
	// StatusUnsat means no satisfying assignment exists.
	StatusUnsat
)

// String names the status in SAT-competition vocabulary.
func (s Status) String() string {
	switch s {
	case StatusSat:
		return "SATISFIABLE"
	case StatusUnsat:
		return "UNSATISFIABLE"
	default:
		return "UNKNOWN"
	}
}

// MarshalJSON encodes the status as its SAT-competition string, the
// form every service client sees.
func (s Status) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts the SAT-competition strings (anything else is
// an error, not a silent UNKNOWN).
func (s *Status) UnmarshalJSON(data []byte) error {
	var str string
	if err := json.Unmarshal(data, &str); err != nil {
		return err
	}
	switch str {
	case "SATISFIABLE":
		*s = StatusSat
	case "UNSATISFIABLE":
		*s = StatusUnsat
	case "UNKNOWN":
		*s = StatusUnknown
	default:
		return fmt.Errorf("solver: unknown status %q", str)
	}
	return nil
}

// Definitive reports whether the status is a verdict (SAT or UNSAT)
// rather than a shrug.
func (s Status) Definitive() bool { return s == StatusSat || s == StatusUnsat }

// Stats is the common effort block every engine fills in as far as its
// notions apply; fields that do not apply stay zero.
type Stats struct {
	// Samples is the number of noise/carrier samples consumed (NBL
	// engines) or simulation timesteps (analog).
	Samples int64 `json:"samples,omitempty"`
	// Decisions and Propagations count search effort (dpll, cdcl, hybrid).
	Decisions    int64 `json:"decisions,omitempty"`
	Propagations int64 `json:"propagations,omitempty"`
	// Conflicts counts conflicts (cdcl) or backtracks (dpll, hybrid).
	Conflicts int64 `json:"conflicts,omitempty"`
	// Flips and Restarts count local-search effort (walksat).
	Flips    int64 `json:"flips,omitempty"`
	Restarts int64 `json:"restarts,omitempty"`
	// Probes counts NBL-coprocessor invocations (hybrid).
	Probes int64 `json:"probes,omitempty"`
	// Mean and StdErr describe the final S_N statistic (NBL engines).
	Mean   float64 `json:"mean,omitempty"`
	StdErr float64 `json:"stderr,omitempty"`
	// NMBefore and NMAfter record the n·m product before and after
	// preprocessing, and Components the number of variable-disjoint
	// subformulas solved independently (pipeline meta-engines). Zero
	// everywhere else.
	NMBefore   int64 `json:"nm_before,omitempty"`
	NMAfter    int64 `json:"nm_after,omitempty"`
	Components int64 `json:"components,omitempty"`
	// FillAccel and EvalAccel name the accelerated kernels active in the
	// build that produced this result ("avx2" or "none"): FillAccel the
	// noise-fill backend for the engine's noise family, EvalAccel the
	// S_N block evaluator's clause and tau kernels. Both backends are
	// bit-identical to the portable paths, so these are provenance
	// fields, not result qualifiers. Empty for engines without a sampled
	// hot path, which keeps their records byte-identical.
	FillAccel string `json:"fill_accel,omitempty"`
	EvalAccel string `json:"eval_accel,omitempty"`
}

// Add accumulates other into s field-wise (used by the portfolio to
// report combined effort). Mean and StdErr are deliberately left alone:
// they are statistics, not counters, and summing them across engines
// would be meaningless — the caller decides whose statistic survives.
// NMBefore/NMAfter/Components likewise describe one preprocessing run,
// not an accumulable effort, and stay with whoever set them.
// FillAccel and EvalAccel are identities, not counters: s keeps its own
// when set, and otherwise adopts other's, so a meta-engine merging
// sampling components still names their kernels (all components run in
// one build, so any component's kernel name is the merge's).
func (s *Stats) Add(other Stats) {
	s.Samples += other.Samples
	s.Decisions += other.Decisions
	s.Propagations += other.Propagations
	s.Conflicts += other.Conflicts
	s.Flips += other.Flips
	s.Restarts += other.Restarts
	s.Probes += other.Probes
	if s.FillAccel == "" {
		s.FillAccel = other.FillAccel
	}
	if s.EvalAccel == "" {
		s.EvalAccel = other.EvalAccel
	}
}

// Result is the unified outcome of a solve.
type Result struct {
	// Status is the three-valued verdict.
	Status Status
	// Assignment is a satisfying assignment when Status is StatusSat and
	// the engine produces models (complete engines always do; mc only
	// under Config.FindModel).
	Assignment cnf.Assignment
	// Engine is the registry name of the engine that produced the
	// verdict. For a portfolio solve it names the winning member.
	Engine string
	// Count is the model count for counting tasks (TaskCount: #models;
	// TaskWeightedCount: the clause-cover-weighted K'), nil for decide
	// solves. big.Int because free variables double the count per head
	// and weights multiply — uint64 overflows at 64 free variables.
	Count *big.Int
	// Wall is the wall-clock duration of the solve.
	Wall time.Duration
	// Stats is the engine's effort accounting.
	Stats Stats
}

func (r Result) String() string {
	s := fmt.Sprintf("%s [%s %v]", r.Status, r.Engine, r.Wall.Round(time.Microsecond))
	if r.Count != nil {
		s += " count " + r.Count.String()
	}
	if r.Status == StatusSat && r.Assignment != nil {
		s += " model " + r.Assignment.String()
	}
	return s
}

// resultJSON is the wire form of Result: the model is rendered as
// DIMACS signed literals (only assigned variables appear) and the wall
// clock in integer nanoseconds, so any HTTP client can parse a verdict
// without knowing the packed in-memory encodings.
type resultJSON struct {
	Status Status `json:"status"`
	Model  []int  `json:"model,omitempty"`
	Engine string `json:"engine,omitempty"`
	// Count is the model count as a decimal string: counts routinely
	// exceed 2^53, so a JSON number would silently lose precision in
	// every JavaScript (and most dynamically-typed) clients. Absent for
	// decide solves, which keeps pre-task-model verdict records
	// byte-identical.
	Count  string  `json:"count,omitempty"`
	WallNS int64   `json:"wall_ns"`
	Wall   string  `json:"wall"`
	Stats  Stats   `json:"stats"`
	ZScore float64 `json:"z,omitempty"`
}

// MarshalJSON implements json.Marshaler for the service API.
func (r Result) MarshalJSON() ([]byte, error) {
	out := resultJSON{
		Status: r.Status,
		Engine: r.Engine,
		WallNS: r.Wall.Nanoseconds(),
		Wall:   r.Wall.String(),
		Stats:  r.Stats,
	}
	if r.Stats.StdErr != 0 {
		out.ZScore = r.Stats.Mean / r.Stats.StdErr
	}
	if r.Count != nil {
		out.Count = r.Count.String()
	}
	if r.Assignment != nil {
		for v := cnf.Var(1); int(v) < len(r.Assignment); v++ {
			switch r.Assignment.Get(v) {
			case cnf.True:
				out.Model = append(out.Model, int(v))
			case cnf.False:
				out.Model = append(out.Model, -int(v))
			}
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON is the inverse of MarshalJSON. The assignment length is
// inferred from the largest variable in the model, so a partial model
// over unnumbered trailing variables round-trips to an equivalent (not
// necessarily identical-length) assignment.
func (r *Result) UnmarshalJSON(data []byte) error {
	var in resultJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	r.Status = in.Status
	r.Engine = in.Engine
	r.Wall = time.Duration(in.WallNS)
	r.Stats = in.Stats
	r.Assignment = nil
	r.Count = nil
	if in.Count != "" {
		c, ok := new(big.Int).SetString(in.Count, 10)
		if !ok {
			return fmt.Errorf("solver: bad count %q", in.Count)
		}
		r.Count = c
	}
	if len(in.Model) > 0 {
		maxVar := 0
		for _, x := range in.Model {
			if x < 0 {
				x = -x
			}
			if x == 0 {
				return fmt.Errorf("solver: model literal 0")
			}
			if x > maxVar {
				maxVar = x
			}
		}
		a := cnf.NewAssignment(maxVar)
		for _, x := range in.Model {
			if x > 0 {
				a.Set(cnf.Var(x), cnf.True)
			} else {
				a.Set(cnf.Var(-x), cnf.False)
			}
		}
		r.Assignment = a
	}
	return nil
}

// ProgressFunc observes a live Stats snapshot of a solve in flight.
// Implementations must be fast and concurrency-safe: engines may call
// them from their sampling loops, and a pipeline or portfolio solve
// invokes the same hook from several component goroutines.
type ProgressFunc func(Stats)

// progressKey carries a ProgressFunc through a context.
type progressKey struct{}

// ContextWithProgress returns a context carrying fn. Engines that
// support live progress (the Monte-Carlo sampler reports at every
// merged convergence-round boundary) look the hook up with
// ProgressFromContext once per check and call it with partial Stats
// while solving. The hook travels with the context — not with the
// engine — so a long-lived (warm) solver instance can serve many
// requests, each with its own observer; it is the one progress channel
// (the mc check span's SNR trajectory wraps it the same way).
func ContextWithProgress(ctx context.Context, fn ProgressFunc) context.Context {
	return context.WithValue(ctx, progressKey{}, fn)
}

// ProgressFromContext returns the progress hook carried by ctx, or nil.
func ProgressFromContext(ctx context.Context) ProgressFunc {
	fn, _ := ctx.Value(progressKey{}).(ProgressFunc)
	return fn
}

// Solver is the one interface every engine implements.
//
// Solve must honor ctx: on cancellation or deadline expiry it returns
// promptly with a Result carrying whatever partial stats it has,
// StatusUnknown, and ctx.Err().
type Solver interface {
	Solve(ctx context.Context, f *cnf.Formula) (Result, error)
}

// Reusable is implemented by solvers whose constructed state — noise
// banks, evaluators, block buffers — outlives a single Solve and can
// serve the next formula of its (n, m) geometry. It is the contract the
// engine lease pool (internal/enginepool) is built on. The pool keys an
// idle instance by everything its state depends on, which leaves out
// the seed, and hands a leased instance its caller's Config through
// Reset before the Solve.
//
// Reset records cfg's defaulted seed for the next Solve, and reports
// whether the instance holds a built engine: a warm hit. A Solve after
// Reset must return bit-for-bit the Result a fresh construction under
// cfg would (the conformance tests assert this for every pooled
// engine). Reset must not fail: formula validation stays in Solve,
// where the error has a caller to land on.
type Reusable interface {
	Solver
	Reset(cfg Config) bool
}

// Func adapts a plain function to the Solver interface.
type Func func(ctx context.Context, f *cnf.Formula) (Result, error)

// Solve implements Solver.
func (fn Func) Solve(ctx context.Context, f *cnf.Formula) (Result, error) {
	return fn(ctx, f)
}

// Config carries every knob an engine may consult. Engines read the
// fields they understand and ignore the rest, so one Config can
// configure a whole portfolio. Validate holds the bounds of every
// knob, and NewWith refuses a Config outside them.
type Config struct {
	// Seed seeds stochastic engines. Default 1.
	Seed uint64
	// MaxSamples is the sample/step budget of the NBL engines. Zero
	// selects the registry default of 4,000,000 — applied uniformly to
	// every engine so portfolio members race on equal budgets; construct
	// an engine via its own package to get its package-level default
	// instead.
	MaxSamples int64
	// Theta is the SAT decision threshold in standard errors for the
	// statistical engines. 0 selects the default (4).
	Theta float64
	// Workers is the Monte-Carlo engine's sampling parallelism, at most
	// MaxWorkers.
	Workers int
	// Family selects the mc noise family: "half", "unit", "gauss", "rtw".
	// Default "unit".
	Family string
	// Allocation selects the sbl carrier plan: "geometric4" or "linear".
	Allocation string
	// MaxFlips, Restarts and NoiseP configure walksat.
	MaxFlips int
	Restarts int
	NoiseP   float64
	// Candidates caps hybrid coprocessor probes per decision (0 = all).
	Candidates int
	// FindModel asks the mc engine to also run Algorithm 2 and return a
	// satisfying assignment on SAT. Complete engines (exact, dpll, cdcl,
	// hybrid) and walksat return a model regardless; the check-only
	// engines (rtw, sbl, analog) and the counters (count, wcount) refuse
	// the option at construction rather than silently ignore it.
	FindModel bool
	// Members lists the engines a portfolio races. Empty selects the
	// default lineup.
	Members []string
	// Task selects what the solve computes (decide, count,
	// weighted-count); zero defaults to TaskDecide. The task rides the
	// Config — not a separate parameter — because it changes engine
	// behavior the same way every other knob does: a decide verdict
	// must not answer a counting request (the pipeline reads the task
	// to pick count-safe preprocessing), so the task must separate
	// cache identities, which Key() guarantees.
	Task Task
}

// MaxWorkers caps Config.Workers: the sampling goroutines one solve
// may start.
const MaxWorkers = 64

// Validate reports the first knob outside its bounds, by its HTTP
// query name (nblsat's flags share those names). Counts and budgets
// must be non-negative, theta and noise finite and non-negative, and
// workers at most MaxWorkers (a negative count would reach make() in
// the sampler). The float bounds guard verdicts, not just resources: a
// NaN theta fails every SAT comparison, so each check would end in a
// definitive UNSAT, and a negative one certifies SAT on noise alone.
// No member may be the portfolio or wrap it at any depth, such as
// pre(pre(portfolio)): every member inherits the Config, members
// included, so the portfolio would lease itself without bound. Validate
// looks nothing up in the registry, so nblrouter, which links no
// engines, can run it; NewWith resolves the member names.
func (c Config) Validate() error {
	for _, k := range []struct {
		name string
		v    int64
	}{
		{"samples", c.MaxSamples}, {"workers", int64(c.Workers)}, {"flips", int64(c.MaxFlips)},
		{"restarts", int64(c.Restarts)}, {"candidates", int64(c.Candidates)},
	} {
		if k.v < 0 {
			return fmt.Errorf("solver: bad %s %d: must be >= 0", k.name, k.v)
		}
	}
	for _, k := range []struct {
		name string
		v    float64
	}{{"theta", c.Theta}, {"noise", c.NoiseP}} {
		if math.IsNaN(k.v) || math.IsInf(k.v, 0) || k.v < 0 {
			return fmt.Errorf("solver: bad %s %v: must be finite and >= 0", k.name, k.v)
		}
	}
	if c.Workers > MaxWorkers {
		return fmt.Errorf("solver: bad workers %d: the cap is %d", c.Workers, MaxWorkers)
	}
	for _, m := range c.Members {
		for expr, ok := m, true; ok; _, expr, ok = splitMeta(expr) {
			if expr == "portfolio" {
				return fmt.Errorf("solver: bad member %q: a portfolio cannot race itself", m)
			}
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Family == "" {
		c.Family = "unit"
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 4_000_000 // the core engine's per-check budget
	}
	if c.Theta == 0 {
		c.Theta = 4
	}
	if c.Task == "" {
		c.Task = TaskDecide
	}
	return c
}

// Key folds every engine-selecting knob into a comparison string: two
// Configs with equal Keys construct behaviorally identical engines, so
// the key is what the service verdict cache may safely share answers
// across. Defaults are applied first — a zero Config and an explicit
// default Config select the same engine and must key identically. The
// engine lease pool keys idle instances by Key with the seed zeroed: a
// Reusable engine takes its seed at Reset, so instances that differ
// only in seed hold the same warm state.
//
// The task is appended only when it is not decide: every decide Config
// keys byte-identically to its pre-task-model form, so verdict-store
// files written before tasks existed replay unchanged (the durable
// store persists these keys across releases; TestConfigKeyGolden pins
// the literal form).
func (c Config) Key() string {
	c = c.withDefaults()
	key := fmt.Sprintf("%d|%d|%g|%d|%s|%s|%d|%d|%g|%d|%t|%v",
		c.Seed, c.MaxSamples, c.Theta, c.Workers, c.Family, c.Allocation,
		c.MaxFlips, c.Restarts, c.NoiseP, c.Candidates, c.FindModel, c.Members)
	if c.Task != TaskDecide {
		key += "|" + string(c.Task)
	}
	return key
}

// CompleteResult maps a complete-search outcome onto a Result: a
// non-nil error passes through (verdict unknown, partial stats kept), a
// model means SAT, and a finished search without one is a certified
// UNSAT. It is the shared adapter tail of the complete engines (dpll,
// cdcl, hybrid).
func CompleteResult(a cnf.Assignment, ok bool, err error, stats Stats) (Result, error) {
	out := Result{Stats: stats}
	if err != nil {
		return out, err
	}
	if ok {
		out.Status = StatusSat
		out.Assignment = a
	} else {
		out.Status = StatusUnsat
	}
	return out, nil
}

// WarmEngine is what Warm needs of an engine: re-targeting at a new
// formula and seed that restores fresh-engine state, or an error naming
// why the formula is rejected (leaving the engine as it was).
type WarmEngine interface {
	Reset(f *cnf.Formula, seed uint64) error
}

// Warm is the registry adapter of the warm sampling engines (mc, rtw,
// sbl), and the one Reusable engine. The engine is built on the first
// Solve and persists; every later Solve re-targets it at its formula
// and the current seed through the engine's Reset, which keeps noise
// banks, evaluators and block buffers whenever the (n, m) geometry
// repeats — the amortization a long-running solve service depends on.
// Reset restores fresh-engine state, so a warm Solve is
// result-identical to a cold one. The mutex makes a shared instance
// safe (calls serialize); anything that wants parallelism holds one
// instance per goroutine, as the portfolio and the lease pool do.
//
// An engine package supplies only a constructor and a check function
// mapping one check onto a Result; Warm owns the locking, the lazily
// built engine, the seed a lease hands it, and the "<name>.check" span.
type Warm[E WarmEngine] struct {
	span  string
	build func(f *cnf.Formula, seed uint64) (E, error)
	check func(ctx context.Context, eng E, f *cnf.Formula, sp *obs.Span) (Result, error)

	mu    sync.Mutex
	seed  uint64 // the seed the next Solve runs under
	eng   E
	built bool
}

// NewWarm returns the warm adapter of engine name, solving under seed
// until a Reset hands it another. build constructs the engine for a
// formula and seed; check runs one check on the engine and may add
// trajectory points to sp, the engine's "<name>.check" span (nil on an
// untraced context).
func NewWarm[E WarmEngine](name string, seed uint64,
	build func(f *cnf.Formula, seed uint64) (E, error),
	check func(ctx context.Context, eng E, f *cnf.Formula, sp *obs.Span) (Result, error),
) *Warm[E] {
	return &Warm[E]{span: name + ".check", seed: seed, build: build, check: check}
}

// Reset implements Reusable: the next Solve runs under cfg's defaulted
// seed, and the lease is warm when the engine is already built.
func (w *Warm[E]) Reset(cfg Config) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seed = cfg.withDefaults().Seed
	return w.built
}

// Solve runs one check inside the engine's check span, which records
// the geometry, the samples spent, the verdict, and the kernel backends
// the returned Stats name. On an untraced context the span is nil and
// the wrapper costs a context lookup.
func (w *Warm[E]) Solve(ctx context.Context, f *cnf.Formula) (Result, error) {
	sp, ctx := obs.StartSpan(ctx, w.span)
	if sp != nil {
		sp.SetAttr("n", strconv.Itoa(f.NumVars))
		sp.SetAttr("m", strconv.Itoa(f.NumClauses()))
	}
	out, err := w.solve(ctx, f, sp)
	if sp != nil {
		sp.SetAttr("samples", strconv.FormatInt(out.Stats.Samples, 10))
		sp.SetAttr("status", out.Status.String())
		if out.Stats.EvalAccel != "" {
			sp.SetAttr("eval_accel", out.Stats.EvalAccel)
			sp.SetAttr("fill_accel", out.Stats.FillAccel)
		}
		sp.Finish()
	}
	return out, err
}

func (w *Warm[E]) solve(ctx context.Context, f *cnf.Formula, sp *obs.Span) (Result, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.built {
		if err := w.eng.Reset(f, w.seed); err != nil {
			return Result{}, err
		}
	} else {
		eng, err := w.build(f, w.seed)
		if err != nil {
			return Result{}, err
		}
		w.eng, w.built = eng, true
	}
	return w.check(ctx, w.eng, f, sp)
}

// CountResult maps an exact-counting outcome onto a Result: a non-nil
// error passes through (verdict unknown, partial stats kept), a
// positive count means SAT, and an exact zero is a certified UNSAT. It
// is the shared adapter tail of the counting engines (count, wcount)
// and the pipeline's counting paths, the counting analogue of
// CompleteResult.
func CountResult(count *big.Int, err error, stats Stats) (Result, error) {
	out := Result{Stats: stats}
	if err != nil {
		return out, err
	}
	if count == nil {
		return out, fmt.Errorf("solver: counting engine produced no count")
	}
	out.Count = count
	if count.Sign() > 0 {
		out.Status = StatusSat
	} else {
		out.Status = StatusUnsat
	}
	return out, nil
}

// ErrNoModelRecovery is the error the factory of an engine that only
// checks or counts returns when Config.FindModel is requested: the knob
// must be refused before any formula is solved rather than be silently
// ignored.
func ErrNoModelRecovery(engine string) error {
	return fmt.Errorf(
		"%s: model recovery (FindModel) is not implemented; use mc or a complete engine", engine)
}

// Factory builds a configured engine. inner is the expression a
// meta-engine "name(inner)" wraps, verbatim, and empty for a plain
// engine. A factory refuses what the Config rules out, such as a knob
// value the engine cannot honour; what the formula rules out waits for
// Solve, since the formula is not known yet.
type Factory func(inner string, cfg Config) (Solver, error)

// entry is one registry name: how to build it, the tasks it runs, and
// whether it is a meta-engine, reached only as "name(inner)".
type entry struct {
	factory Factory
	tasks   []Task
	meta    bool
}

var (
	regMu    sync.RWMutex
	registry = map[string]entry{}
)

// Register installs a plain engine under name with the tasks it runs;
// none listed means decide only. It panics on a duplicate name or a nil
// factory: engine names are one flat public namespace, and a silent
// overwrite would make solver behavior import-order dependent.
func Register(name string, f Factory, tasks ...Task) { register(name, entry{f, tasks, false}) }

// RegisterMeta installs a meta-engine under name, reachable as
// "name(inner)" where inner is any engine expression, so wrappers
// compose: "pre(mc)", "pre(portfolio)", "pre(pre(cdcl))". It shares
// Register's namespace: a meta may not reuse a plain engine's name.
func RegisterMeta(name string, f Factory, tasks ...Task) { register(name, entry{f, tasks, true}) }

func register(name string, e entry) {
	if e.factory == nil {
		panic(fmt.Sprintf("solver: %q registered with a nil factory", name))
	}
	if len(e.tasks) == 0 {
		e.tasks = []Task{TaskDecide}
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("solver: %q registered twice", name))
	}
	registry[name] = e
}

// Engines returns the sorted names of all registered plain engines.
func Engines() []string { return names(false) }

// Metas returns the sorted names of all registered meta-engines; each
// is used as "name(inner)" where inner is any engine expression.
func Metas() []string { return names(true) }

func names(meta bool) []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := []string{}
	for name, e := range registry {
		if e.meta == meta {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// lookup resolves an engine expression to the factory that builds it,
// the inner expression that factory wraps ("" for a plain engine), and
// the tasks the whole expression runs. A meta expression runs only the
// tasks both the shell and its inner expression run: a count-capable
// pre() around a decide-only engine cannot count.
func lookup(expr string) (Factory, string, []Task, error) {
	regMu.RLock()
	e, ok := registry[expr]
	regMu.RUnlock()
	if ok && !e.meta {
		return e.factory, "", e.tasks, nil
	}
	if name, inner, isMeta := splitMeta(expr); isMeta {
		regMu.RLock()
		e, ok = registry[name]
		regMu.RUnlock()
		if ok && e.meta {
			if inner == "" {
				return nil, "", nil, fmt.Errorf("solver: %q has an empty inner expression; wrap an engine, e.g. %s(cdcl)", expr, name)
			}
			_, _, innerTasks, err := lookup(inner)
			if err != nil {
				return nil, "", nil, err
			}
			var both []Task
			for _, t := range e.tasks {
				if slices.Contains(innerTasks, t) {
					both = append(both, t)
				}
			}
			return e.factory, inner, both, nil
		}
	}
	return nil, "", nil, fmt.Errorf("solver: unknown engine %q (registered: %v, meta: %v)",
		expr, Engines(), Metas())
}

// NewWith builds the engine an expression names under cfg: a plain
// registry name, or a meta-engine expression "meta(inner)" such as
// "pre(mc)", whose factory wraps the engine built from inner. It is the
// one constructor; the portfolio and the pipeline hand every member and
// component the same Config through it. Everything the Config alone can
// rule out is refused here, before any formula is solved: a knob outside
// Validate's bounds, a task the expression does not run, a member the
// registry cannot resolve, and whatever the engine's factory refuses.
// The returned Solver stamps Result.Engine and Result.Wall and
// short-circuits on an already-cancelled context, so individual engines
// need not repeat either.
func NewWith(expr string, cfg Config) (Solver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.Task == TaskEquivalent {
		return nil, fmt.Errorf(
			"solver: task %q is not an engine task; lower it to a decide on a miter CNF (logic.EquivalenceCNF) first", cfg.Task)
	}
	factory, inner, tasks, err := lookup(expr)
	if err != nil {
		return nil, err
	}
	if !slices.Contains(tasks, cfg.Task) {
		return nil, fmt.Errorf("solver: engine %q does not support task %q (supported: %v)",
			expr, cfg.Task, tasks)
	}
	for _, m := range cfg.Members {
		if _, _, _, err := lookup(m); err != nil {
			return nil, fmt.Errorf("solver: bad member %q: %w", m, err)
		}
	}
	impl, err := factory(inner, cfg)
	if err != nil {
		return nil, err
	}
	return wrap(expr, impl), nil
}

// wrap adds the registry bookkeeping around an engine. A Reusable impl
// yields a wrapper that is itself Reusable, so reusability survives the
// trip through NewWith and the lease pool can see it.
func wrap(name string, impl Solver) Solver {
	n := &named{name: name, impl: impl}
	if _, ok := impl.(Reusable); ok {
		return &reusableNamed{named: *n}
	}
	return n
}

// splitMeta parses "meta(inner)" into its parts. The inner expression
// runs to the final ')', so nested expressions stay intact.
func splitMeta(name string) (meta, inner string, ok bool) {
	open := strings.Index(name, "(")
	if open <= 0 || !strings.HasSuffix(name, ")") {
		return "", "", false
	}
	return name[:open], name[open+1 : len(name)-1], true
}

// named wraps an engine with the bookkeeping common to all of them.
type named struct {
	name string
	impl Solver
}

// Solve refuses a formula with a literal outside 1..NumVars before the
// engine sees it, so no engine can crash on one or answer it.
func (n *named) Solve(ctx context.Context, f *cnf.Formula) (Result, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return Result{Engine: n.name, Wall: time.Since(start)}, err
	}
	if err := f.Validate(); err != nil {
		return Result{Engine: n.name, Status: StatusUnknown, Wall: time.Since(start)}, err
	}
	r, err := n.impl.Solve(ctx, f)
	if r.Engine == "" {
		// The portfolio sets Engine to the winning member; everyone else
		// leaves it blank for the wrapper to fill.
		r.Engine = n.name
	}
	r.Wall = time.Since(start)
	if err != nil {
		r.Status = StatusUnknown
	}
	return r, err
}

// reusableNamed is the named wrapper for Reusable engines: same solve
// bookkeeping, plus Reset forwarded to the implementation.
type reusableNamed struct{ named }

func (n *reusableNamed) Reset(cfg Config) bool {
	return n.impl.(Reusable).Reset(cfg)
}
