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

// Engine names accepted by Reliability's Options-independent variant
// ReliabilityWith.
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

// KnownEngine reports whether e names a selectable engine (EngineAuto
// and the empty string included). Serving layers use it to reject bad
// engine names at admission, before consuming a queue slot.
func KnownEngine(e Engine) bool {
	switch e {
	case EngineAuto, Engine(""), EngineQFree, EngineWorldEnum, EngineLineageBDD,
		EngineLineageKL, EngineLineageKL53, EngineMonteCarlo, EngineMCDirect,
		EngineSafePlan, EngineMCRare:
		return true
	}
	return false
}

// Reliability computes (exactly or approximately) the reliability of f
// on db, dispatching on the paper's query classification:
//
//   - quantifier-free → Proposition 3.1 exact polynomial algorithm;
//   - hierarchical conjunctive without self-joins → the exact
//     polynomial Dalvi–Suciu safe plan;
//   - few uncertain atoms → exact world enumeration (Theorem 4.2);
//   - existential/universal → exact BDD lineage if it fits, otherwise
//     the Karp–Luby FPTRAS with Corollary 5.5 splitting;
//   - other first-order → the Theorem 5.12 Monte Carlo estimator
//     (direct Hamming-sampling variant, see MonteCarloDirect; use
//     EngineMCRare explicitly when error probabilities are small);
//   - second-order with many uncertain atoms → ErrInfeasible: no
//     feasible engine exists (and under standard assumptions cannot
//     exist).
//
// The computation honors ctx and opts.Budget: cancellation returns an
// error matching ErrCanceled (or, for anytime Monte Carlo engines, a
// Degraded partial result), and when an engine exhausts a resource
// budget or crashes, the dispatcher degrades down the ladder above,
// recording each abandoned engine in Result.FallbackTrail.
func Reliability(ctx context.Context, db *unreliable.DB, f logic.Formula, opts Options) (Result, error) {
	return ReliabilityWith(ctx, EngineAuto, db, f, opts)
}

// ReliabilityWith runs a specific engine, or dispatches when engine is
// EngineAuto (or empty). Every engine runs behind the fault barrier:
// panics surface as ErrEngineFailed, substrate budget errors as
// ErrBudgetExceeded, and context errors as ErrCanceled.
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
		// estimator; no other engine (and no dispatch ladder) can honor it.
		return Result{}, fmt.Errorf("core: lane-range runs require explicit engine %q, got %q", EngineMCDirect, engine)
	}
	ctx, cancel := withBudgetContext(ctx, opts.Budget)
	defer cancel()
	if opts.Breaker != nil && engine != EngineAuto && engine != Engine("") && !opts.Breaker.Allow(engine) {
		// An explicitly selected engine has no ladder to degrade down, so
		// an open breaker fails the call outright instead of skipping.
		return Result{}, fmt.Errorf("%w: engine %s: circuit breaker open", ErrEngineFailed, engine)
	}
	var res Result
	var err error
	switch engine {
	case EngineQFree:
		res, err = runEngine(string(engine), func() (Result, error) { return QuantifierFree(ctx, db, f, opts) })
	case EngineWorldEnum:
		res, err = runEngine(string(engine), func() (Result, error) { return WorldEnum(ctx, db, f, opts) })
	case EngineLineageBDD:
		res, err = runEngine(string(engine), func() (Result, error) { return LineageBDD(ctx, db, f, opts) })
	case EngineLineageKL:
		res, err = runEngine(string(engine), func() (Result, error) { return LineageKL(ctx, db, f, opts, false) })
	case EngineLineageKL53:
		res, err = runEngine(string(engine), func() (Result, error) { return LineageKL(ctx, db, f, opts, true) })
	case EngineMonteCarlo:
		res, err = runEngine(string(engine), func() (Result, error) { return MonteCarlo(ctx, db, f, opts) })
	case EngineMCDirect:
		res, err = runEngine(string(engine), func() (Result, error) { return MonteCarloDirect(ctx, db, f, opts) })
	case EngineSafePlan:
		res, err = runEngine(string(engine), func() (Result, error) { return SafePlan(ctx, db, f, opts) })
	case EngineMCRare:
		res, err = runEngine(string(engine), func() (Result, error) { return MonteCarloRare(ctx, db, f, opts) })
	case EngineAuto, Engine(""):
		res, err = dispatch(ctx, db, f, opts)
	default:
		return Result{}, fmt.Errorf("core: unknown engine %q", engine)
	}
	if opts.Breaker != nil && engine != EngineAuto && engine != Engine("") {
		opts.Breaker.Report(engine, err)
	}
	if err != nil {
		return Result{}, err
	}
	res.Budget = opts.Budget
	res.Seed = opts.Seed
	return res, nil
}

// dispatch walks the degradation ladder. Each rung runs behind the
// fault barrier; a rung that fails for any reason other than
// cancellation is recorded in the trail and the next sound rung is
// tried. Cancellation propagates immediately — a canceled computation
// never silently restarts on a cheaper engine, because the caller's
// deadline has already passed.
func dispatch(ctx context.Context, db *unreliable.DB, f logic.Formula, opts Options) (Result, error) {
	cls := logic.Classify(f)
	var trail []FallbackStep

	// attempt runs one rung behind the fault barrier; on success the
	// accumulated trail is attached to the result. A rung vetoed by the
	// breaker never runs: it fails with errBreakerOpen (which a later
	// rung absorbs exactly like any other rung failure) and the breaker
	// is not Reported, since nothing was attempted.
	attempt := func(engine Engine, fn func() (Result, error)) (Result, error) {
		if opts.Breaker != nil && !opts.Breaker.Allow(engine) {
			return Result{}, errBreakerOpen
		}
		res, err := runEngine(string(engine), fn)
		if opts.Breaker != nil {
			opts.Breaker.Report(engine, err)
		}
		if err == nil && len(trail) > 0 {
			// Prepend the dispatch trail to any step the engine itself
			// recorded (a compiled-evaluation fallback).
			res.FallbackTrail = append(append([]FallbackStep{}, trail...), res.FallbackTrail...)
		}
		return res, err
	}
	// abandon records a failed rung, unless the failure is cancellation,
	// which must propagate.
	abandon := func(engine Engine, err error) error {
		if errors.Is(err, ErrCanceled) {
			return err
		}
		msg := err.Error()
		if errors.Is(err, errBreakerOpen) {
			msg = breakerSkipped
		}
		trail = append(trail, FallbackStep{Engine: string(engine), Err: msg})
		return nil
	}

	// Proposition 3.1: quantifier-free queries are exactly solvable in
	// polynomial time.
	if cls == logic.ClassQuantifierFree {
		res, err := attempt(EngineQFree, func() (Result, error) { return QuantifierFree(ctx, db, f, opts) })
		if err == nil {
			return res, nil
		}
		if perr := abandon(EngineQFree, err); perr != nil {
			return Result{}, perr
		}
	}
	// Hierarchical conjunctive queries without self-joins: the
	// Dalvi–Suciu extensional plan is exact and polynomial — the best
	// possible outcome, so try it before anything exponential.
	if cls == logic.ClassConjunctive {
		res, err := attempt(EngineSafePlan, func() (Result, error) { return SafePlan(ctx, db, f, opts) })
		if err == nil {
			return res, nil
		}
		// Outside the safe fragment (or non-plain atoms): degrade to the
		// intensional engines.
		if perr := abandon(EngineSafePlan, err); perr != nil {
			return Result{}, perr
		}
	}
	// Small world space: exact enumeration is cheap and exact — but only
	// when the budget admits the 2^u worlds.
	if db.NumUncertain() <= opts.MaxEnumAtoms && opts.Budget.allowsWorlds(db) {
		res, err := attempt(EngineWorldEnum, func() (Result, error) { return WorldEnum(ctx, db, f, opts) })
		if err == nil {
			return res, nil
		}
		// Second-order evaluation has no weaker engine to degrade to.
		if cls == logic.ClassSecondOrder {
			return Result{}, err
		}
		if perr := abandon(EngineWorldEnum, err); perr != nil {
			return Result{}, perr
		}
	}
	switch cls {
	case logic.ClassConjunctive, logic.ClassExistential, logic.ClassUniversal:
		// Theorem 5.4 route: exact if the lineage BDD stays small, then
		// the FPTRAS, then — if the FPTRAS is over budget or crashes — the
		// budget-bounded anytime absolute-error estimator.
		res, err := attempt(EngineLineageBDD, func() (Result, error) { return LineageBDD(ctx, db, f, opts) })
		if err == nil {
			return res, nil
		}
		if perr := abandon(EngineLineageBDD, err); perr != nil {
			return Result{}, perr
		}
		res, err = attempt(EngineLineageKL, func() (Result, error) { return LineageKL(ctx, db, f, opts, false) })
		if err == nil {
			return res, nil
		}
		if perr := abandon(EngineLineageKL, err); perr != nil {
			return Result{}, perr
		}
		return attempt(EngineMCDirect, func() (Result, error) { return MonteCarloDirect(ctx, db, f, opts) })
	case logic.ClassQuantifierFree, logic.ClassFirstOrder:
		// Theorem 5.12 (also the last resort for a quantifier-free query
		// whose exact engines failed).
		return attempt(EngineMCDirect, func() (Result, error) { return MonteCarloDirect(ctx, db, f, opts) })
	default:
		return Result{}, fmt.Errorf("%w: %v query with %d uncertain atoms (exact enumeration budget %d, world budget %s)",
			ErrInfeasible, cls, db.NumUncertain(), opts.MaxEnumAtoms, opts.Budget)
	}
}
