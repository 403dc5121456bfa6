package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"qrel/internal/bdd"
	"qrel/internal/mc"
	"qrel/internal/prop"
	"qrel/internal/unreliable"
)

// The typed error taxonomy of the fault-tolerant runtime. Every error
// leaving Reliability/ReliabilityWith matches (via errors.Is) exactly
// one of these sentinels or is an input-validation error (unknown
// engine, malformed query, out-of-range parameters).
var (
	// ErrCanceled: the caller's context was canceled or its deadline
	// (including Budget.Timeout) passed before a result was produced.
	ErrCanceled = errors.New("core: computation canceled")
	// ErrBudgetExceeded: a resource budget — enumeration atoms or
	// worlds, BDD nodes, lineage terms, or Monte Carlo samples — was
	// exhausted and no weaker engine could absorb the work.
	ErrBudgetExceeded = errors.New("core: resource budget exceeded")
	// ErrInfeasible: the query sits outside every engine's fragment (a
	// second-order query over a world space too large to enumerate);
	// under standard complexity assumptions no feasible engine exists.
	ErrInfeasible = errors.New("core: no feasible engine for query")
	// ErrEngineFailed: an engine crashed (panicked) or failed
	// internally; the boundary converted the crash into this error.
	ErrEngineFailed = errors.New("core: engine failed")
)

// Budget bounds the resources one reliability computation may consume.
// The zero value means "no additional bounds" (the per-engine structural
// caps in Options still apply). A Budget is enforced uniformly across
// engines and echoed in Result.Budget.
type Budget struct {
	// Timeout is the wall-clock allowance for the whole call; it is
	// applied as a context deadline at the engine boundary.
	Timeout time.Duration
	// MaxSamples caps the total Monte Carlo samples an engine may draw.
	// Anytime estimators return a Degraded partial result at the cap;
	// relative-error estimators (Karp–Luby) fail with ErrBudgetExceeded
	// so that the dispatcher can degrade to an anytime engine.
	MaxSamples int
	// MaxBDDNodes caps the nodes of each lineage BDD the lineage-bdd
	// engine builds; the engine's own cap of 1<<20 applies when it is
	// unset or larger.
	MaxBDDNodes int
	// MaxWorlds caps exact world enumeration at this many possible
	// worlds (2^u must be ≤ MaxWorlds).
	MaxWorlds uint64
}

// IsZero reports whether the budget imposes no bounds.
func (b Budget) IsZero() bool { return b == Budget{} }

// allowsWorlds reports whether enumerating db's 2^u world space fits
// within MaxWorlds.
func (b Budget) allowsWorlds(db *unreliable.DB) bool {
	if b.MaxWorlds == 0 {
		return true
	}
	wc := db.WorldCount()
	return wc.IsUint64() && wc.Uint64() <= b.MaxWorlds
}

// String renders the budget compactly for diagnostics.
func (b Budget) String() string {
	if b.IsZero() {
		return "unbounded"
	}
	return fmt.Sprintf("timeout=%v samples=%d bddNodes=%d worlds=%d",
		b.Timeout, b.MaxSamples, b.MaxBDDNodes, b.MaxWorlds)
}

// FallbackStep records one rung of the dispatcher's degradation ladder:
// an engine that was tried and failed before the engine that finally
// produced the result.
type FallbackStep struct {
	// Engine is the name of the engine that failed.
	Engine string `json:"engine"`
	// Err is the failure, rendered (Result must stay comparable-free but
	// printable; the typed error classification has already routed the
	// dispatch, so the trail keeps the human-readable cause).
	Err string `json:"err"`
}

// String renders the step as "engine: cause".
func (s FallbackStep) String() string { return s.Engine + ": " + s.Err }

// classifyErr folds an engine error into the typed taxonomy: context
// errors become ErrCanceled, substrate budget errors become
// ErrBudgetExceeded, and everything else passes through unchanged (it is
// either already classified, an input-validation error, or an engine
// fragment mismatch that the dispatcher handles by falling back).
func classifyErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrCanceled) || errors.Is(err, ErrBudgetExceeded) ||
		errors.Is(err, ErrInfeasible) || errors.Is(err, ErrEngineFailed) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, mc.ErrNoSamples) {
		return fmt.Errorf("%w: %v", ErrCanceled, err)
	}
	if errors.Is(err, prop.ErrBudget) || errors.Is(err, bdd.ErrTooLarge) ||
		errors.Is(err, unreliable.ErrEnumBudget) {
		return fmt.Errorf("%w: %v", ErrBudgetExceeded, err)
	}
	return err
}

// runEngine invokes one engine behind the fault barrier: panics are
// recovered into ErrEngineFailed and errors are folded into the typed
// taxonomy. This is the only place engine code runs when entered through
// Reliability/ReliabilityWith or one of the exact helpers (bounded).
func runEngine[T any](name string, fn func() (T, error)) (res T, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero T
			res = zero
			err = fmt.Errorf("%w: engine %s panicked: %v", ErrEngineFailed, name, r)
		}
	}()
	res, err = fn()
	err = classifyErr(err)
	return res, err
}

// bounded runs an exact helper outside the engine table
// (ExpectedErrorPerTuple, AtomSensitivity, RankSensitivities,
// AbsoluteReliability, PossibleCertainAnswers) as ReliabilityWith runs an engine: under
// opts.Budget.Timeout, behind the fault barrier, with the same error
// taxonomy.
func bounded[T any](ctx context.Context, name string, opts Options, fn func(context.Context, Options) (T, error)) (T, error) {
	opts = opts.withDefaults()
	ctx, cancel := withBudgetContext(orBackground(ctx), opts.Budget)
	defer cancel()
	return runEngine(name, func() (T, error) { return fn(ctx, opts) })
}

// orBackground lets exported engines tolerate a nil context from direct
// callers (the facade normalizes before dispatch, but engines are also
// public API inside the module).
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// withBudgetContext applies Budget.Timeout as a context deadline,
// returning the derived context and a cancel function (a no-op when no
// timeout is set).
func withBudgetContext(ctx context.Context, b Budget) (context.Context, context.CancelFunc) {
	if b.Timeout > 0 {
		return context.WithTimeout(ctx, b.Timeout)
	}
	return ctx, func() {}
}
