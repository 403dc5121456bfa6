package core

import (
	"context"
	"errors"
	"fmt"

	"qrel/internal/logic"
	"qrel/internal/unreliable"
)

// Engine identifies a reliability engine for explicit selection.
type Engine string

// Engine names accepted by ReliabilityWith.
const (
	EngineAuto        Engine = "auto"
	EngineQFree       Engine = "qfree"
	EngineWorldEnum   Engine = "world-enum"
	EngineLineageBDD  Engine = "lineage-bdd"
	EngineLineageKL   Engine = "lineage-kl"
	EngineLineageKL53 Engine = "lineage-kl-thm53"
	EngineMonteCarlo  Engine = "monte-carlo"
	EngineMCDirect    Engine = "monte-carlo-direct"
	EngineSafePlan    Engine = "safe-plan"
	EngineMCRare      Engine = "monte-carlo-rare"
)

type engineFunc func(ctx context.Context, db *unreliable.DB, f logic.Formula, opts Options) (Result, error)

// engines is the one table of selectable engines. Its order is the
// differential-oracle panel order, which seeded chaos campaigns replay.
var engines = []struct {
	name Engine
	run  engineFunc
}{
	{EngineQFree, QuantifierFree},
	{EngineSafePlan, SafePlan},
	{EngineWorldEnum, WorldEnum},
	{EngineLineageBDD, LineageBDD},
	{EngineLineageKL, func(ctx context.Context, db *unreliable.DB, f logic.Formula, opts Options) (Result, error) {
		return LineageKL(ctx, db, f, opts, false)
	}},
	{EngineLineageKL53, func(ctx context.Context, db *unreliable.DB, f logic.Formula, opts Options) (Result, error) {
		return LineageKL(ctx, db, f, opts, true)
	}},
	{EngineMonteCarlo, MonteCarlo},
	{EngineMCDirect, MonteCarloDirect},
	{EngineMCRare, MonteCarloRare},
}

// Engines returns every selectable engine name in table order
// (EngineAuto, which selects none of them, excluded).
func Engines() []Engine {
	out := make([]Engine, len(engines))
	for i, e := range engines {
		out[i] = e.name
	}
	return out
}

func lookupEngine(e Engine) engineFunc {
	for _, t := range engines {
		if t.name == e {
			return t.run
		}
	}
	return nil
}

// KnownEngine reports whether e names a selectable engine (EngineAuto
// and the empty string included). Serving layers use it to reject bad
// engine names at admission, before consuming a queue slot.
func KnownEngine(e Engine) bool {
	return e == EngineAuto || e == "" || lookupEngine(e) != nil
}

// Reliability computes (exactly or approximately) the reliability of f
// on db by running the rungs plan chooses from the paper's query
// classification, first to last, until one succeeds.
//
// The computation honors ctx and opts.Budget: cancellation returns an
// error matching ErrCanceled (or, for anytime Monte Carlo engines, a
// Degraded partial result), and when an engine exhausts a resource
// budget or crashes, the next rung runs and the abandoned engine is
// recorded in Result.FallbackTrail.
func Reliability(ctx context.Context, db *unreliable.DB, f logic.Formula, opts Options) (Result, error) {
	return ReliabilityWith(ctx, EngineAuto, db, f, opts)
}

// ReliabilityWith runs a specific engine as a one-rung plan, or the
// planned rungs when engine is EngineAuto (or empty). Every engine runs
// behind the fault barrier: panics surface as ErrEngineFailed,
// substrate budget errors as ErrBudgetExceeded, and context errors as
// ErrCanceled.
func ReliabilityWith(ctx context.Context, engine Engine, db *unreliable.DB, f logic.Formula, opts Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	if !KnownEvalMode(opts.Eval) {
		return Result{}, fmt.Errorf("core: unknown eval mode %q (want %q, %q, or %q)",
			opts.Eval, EvalAuto, EvalCompiled, EvalInterpreted)
	}
	if opts.LaneRange != nil && engine != EngineMCDirect {
		// A lane range is a distribution unit of the lane-split mean
		// estimator; no other engine (and no plan) can honor it.
		return Result{}, fmt.Errorf("core: lane-range runs require explicit engine %q, got %q", EngineMCDirect, engine)
	}
	rungs := []Engine{engine}
	if engine == EngineAuto || engine == "" {
		var err error
		if rungs, err = plan(db, f, opts); err != nil {
			return Result{}, err
		}
	} else if !KnownEngine(engine) {
		return Result{}, fmt.Errorf("core: unknown engine %q", engine)
	}
	ctx, cancel := withBudgetContext(ctx, opts.Budget)
	defer cancel()
	res, err := execute(ctx, rungs, db, f, opts)
	if err != nil {
		return Result{}, err
	}
	res.Budget = opts.Budget
	res.Seed = opts.Seed
	return res, nil
}

// plan returns the rungs dispatch tries for f on db, best first. It
// runs no engine:
//
//   - quantifier-free → the exact polynomial algorithm of Proposition 3.1;
//   - conjunctive → the Dalvi–Suciu safe plan, exact and polynomial on
//     hierarchical queries without self-joins;
//   - any class with a small world space → exact world enumeration
//     (Theorem 4.2), when u ≤ MaxEnumAtoms and the budget admits 2^u
//     worlds;
//   - conjunctive, existential, universal → the Theorem 5.4 lineage
//     route: exact BDD, then the Karp–Luby FPTRAS with Corollary 5.5;
//   - every first-order class → the Theorem 5.12 estimator last (the
//     direct variant; EngineMCRare is explicit-only);
//   - second-order past enumeration → ErrInfeasible: no feasible engine
//     exists (and under standard assumptions cannot exist).
func plan(db *unreliable.DB, f logic.Formula, opts Options) ([]Engine, error) {
	cls := logic.Classify(f)
	rungs := make([]Engine, 0, 5)
	switch cls {
	case logic.ClassQuantifierFree:
		rungs = append(rungs, EngineQFree)
	case logic.ClassConjunctive:
		rungs = append(rungs, EngineSafePlan)
	}
	if db.NumUncertain() <= opts.MaxEnumAtoms && opts.Budget.allowsWorlds(db) {
		rungs = append(rungs, EngineWorldEnum)
	}
	switch cls {
	case logic.ClassConjunctive, logic.ClassExistential, logic.ClassUniversal:
		rungs = append(rungs, EngineLineageBDD, EngineLineageKL)
	case logic.ClassSecondOrder:
		if len(rungs) == 0 {
			return nil, fmt.Errorf("%w: %v query with %d uncertain atoms (exact enumeration budget %d, world budget %s)",
				ErrInfeasible, cls, db.NumUncertain(), opts.MaxEnumAtoms, opts.Budget)
		}
		return rungs, nil
	}
	return append(rungs, EngineMCDirect), nil
}

// execute runs the rungs in order, each behind the fault barrier, and
// returns the first success with the failed rungs prepended to its
// FallbackTrail. A rung the breaker vetoes never runs and is recorded
// as skipped. Cancellation propagates at once — a canceled computation
// never silently restarts on a cheaper engine, because the caller's
// deadline has already passed — and the last rung's error is returned
// unchanged.
func execute(ctx context.Context, rungs []Engine, db *unreliable.DB, f logic.Formula, opts Options) (Result, error) {
	var trail []FallbackStep
	var err error
	for _, e := range rungs {
		var res Result
		if opts.Breaker != nil && !opts.Breaker.Allow(e) {
			err = errBreakerOpen
		} else {
			run := lookupEngine(e)
			res, err = runEngine(string(e), func() (Result, error) { return run(ctx, db, f, opts) })
			if opts.Breaker != nil {
				opts.Breaker.Report(e, err)
			}
		}
		if err == nil {
			if len(trail) > 0 {
				// The engine's own steps (a compiled-evaluation fallback)
				// follow the rungs abandoned before it.
				res.FallbackTrail = append(trail, res.FallbackTrail...)
			}
			return res, nil
		}
		if errors.Is(err, ErrCanceled) {
			break
		}
		msg := err.Error()
		if errors.Is(err, errBreakerOpen) {
			msg = breakerSkipped
		}
		trail = append(trail, FallbackStep{Engine: string(e), Err: msg})
	}
	return Result{}, err
}
