package core

import (
	"context"
	"fmt"
	"math/big"

	"qrel/internal/faultinject"
	"qrel/internal/logic"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// WorldEnum computes the exact expected error and reliability of an
// arbitrary query — first-order or second-order — by enumerating the
// possible worlds of Omega(D):
//
//	H_psi(D) = Σ_B nu(B) · |psi^A Δ psi^B|.
//
// This is the deterministic simulation of the FP^#P algorithm of
// Theorem 4.2 (see package sharpp for the oracle view), down to its
// integer normaliser g: the sum is formed over nu(B)·g ∈ ℕ and divided
// by g once. Its running time is 2^u query evaluations for u uncertain
// atoms, bounded by opts.MaxEnumAtoms and opts.Budget.MaxWorlds;
// first-order queries are compiled once per answer tuple and evaluated
// 64 worlds per pass (see flipEnum), second-order ones — and any run
// with opts.Eval = EvalInterpreted — materialise and interpret one
// world at a time. The enumeration polls ctx between blocks of worlds.
//
// opts.Workers > 1 cuts the world space into contiguous ranges of flip
// masks, one per worker, and reports the engine as world-enum-parallel.
// The result is bit-identical either way: the partial sums are
// integers, and integer addition commutes. The first worker to fail
// cancels its siblings, and an external cancellation (ctx or
// opts.Budget.Timeout) stops the whole pool promptly instead of
// finishing the enumeration.
func WorldEnum(ctx context.Context, db *unreliable.DB, f logic.Formula, opts Options) (Result, error) {
	ctx = orBackground(ctx)
	opts = opts.withDefaults()
	if err := faultinject.Hit(faultinject.SiteWorldEnum); err != nil {
		return Result{}, err
	}
	u := db.NumUncertain()
	if u > opts.MaxEnumAtoms || u > unreliable.MaxEnumAtoms {
		return Result{}, fmt.Errorf("%w: %d uncertain atoms exceed enumeration budget %d",
			unreliable.ErrEnumBudget, u, opts.MaxEnumAtoms)
	}
	if !opts.Budget.allowsWorlds(db) {
		return Result{}, fmt.Errorf("%w: world space %v exceeds budget of %d worlds",
			ErrBudgetExceeded, db.WorldCount(), opts.Budget.MaxWorlds)
	}
	res := Result{Engine: "world-enum", Class: logic.Classify(f)}
	workers := 1
	if opts.Workers > 1 {
		res.Engine, workers = "world-enum-parallel", opts.Workers
	}
	var total uint64
	var part func(ctx context.Context, lo, hi uint64, acc *big.Int) error
	// A second-order query has no compiled form: interpreting it is not
	// a fallback, so it leaves no trail.
	plan := evalPlan{mode: EvalInterpreted}
	if logic.Compilable(f) {
		plan = planEval(db, f, opts)
		res.FallbackTrail = plan.trail
	}
	if plan.compiled() {
		total, part = enumBlocks(u), compiledWorlds(db, plan)
	} else {
		observed, err := answerSet(db.A, f)
		if err != nil {
			return Result{}, err
		}
		total, part = uint64(1)<<uint(u), interpretedWorlds(db, f, observed)
	}
	sum, err := sumRanges(ctx, total, workers, part)
	if err != nil {
		return Result{}, err
	}
	setExact(&res, new(big.Rat).SetFrac(sum, db.G()), db.A.N, len(logic.FreeVars(f)))
	return res, nil
}

// compiledWorlds returns the range worker of the compiled enumeration:
// it adds Σ_B nu(B)·g·|psi^A Δ psi^B| over the worlds of blocks lo..hi-1
// to acc, one EvalBatch per answer tuple and block. Every block polls
// ctx and passes the two evaluation fault sites once.
func compiledWorlds(db *unreliable.DB, plan evalPlan) func(ctx context.Context, lo, hi uint64, acc *big.Int) error {
	need := 1
	for _, p := range plan.progs {
		need = max(need, p.StackNeed())
	}
	return func(ctx context.Context, lo, hi uint64, acc *big.Int) error {
		e := newFlipEnum(uint64(len(plan.progs)))
		e.reset(db.Weights(), lo)
		stack := make([]uint64, need)
		for b := lo; b < hi; b++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := faultinject.Hit(faultinject.SiteWorldWorker); err != nil {
				return err
			}
			if err := faultinject.Hit(faultinject.SiteAnswerSet); err != nil {
				return err
			}
			for ti, p := range plan.progs {
				v := p.EvalBatch(e.cols, e.full, stack)
				if plan.base[ti] {
					v ^= e.full
				}
				e.mark(v)
			}
			e.endBlock(acc)
		}
		return nil
	}
}

// interpretedWorlds returns the range worker of the interpreted
// enumeration — the only evaluator of second-order queries and the
// reference the compiled one is tested against: one materialised world
// and one logic.Answer per flip mask in lo..hi-1.
func interpretedWorlds(db *unreliable.DB, f logic.Formula, observed map[uint64]struct{}) func(ctx context.Context, lo, hi uint64, acc *big.Int) error {
	return func(ctx context.Context, lo, hi uint64, acc *big.Int) error {
		walk := db.Weights().Walk(lo)
		var term big.Int
		for mask := lo; mask < hi; mask++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := faultinject.Hit(faultinject.SiteWorldWorker); err != nil {
				return err
			}
			actual, err := answerSet(db.World(mask), f)
			if err != nil {
				return err
			}
			if diff := symmetricDiffSize(observed, actual); diff > 0 {
				acc.Add(acc, term.Mul(walk.Weight(), term.SetInt64(int64(diff))))
			}
			walk.Next()
		}
		return nil
	}
}

// answerSet computes psi^A as a set of tuple keys.
func answerSet(s *rel.Structure, f logic.Formula) (map[uint64]struct{}, error) {
	if err := faultinject.Hit(faultinject.SiteAnswerSet); err != nil {
		return nil, err
	}
	ans, err := logic.Answer(s, f)
	if err != nil {
		return nil, err
	}
	out := make(map[uint64]struct{}, len(ans))
	for _, t := range ans {
		out[t.Key()] = struct{}{}
	}
	return out, nil
}

// symmetricDiffSize returns |a Δ b|.
func symmetricDiffSize(a, b map[uint64]struct{}) int {
	diff := 0
	for k := range a {
		if _, ok := b[k]; !ok {
			diff++
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			diff++
		}
	}
	return diff
}

// ExpectedErrorPerTuple computes, for every tuple ā ∈ A^k, the exact
// expected error H_psi(ā)(D) = Pr[psi(ā)^B ≠ psi(ā)^A] by world
// enumeration. The sum of the returned values is H_psi(D); the
// per-tuple values tell the user which answer tuples are unreliable.
func ExpectedErrorPerTuple(db *unreliable.DB, f logic.Formula, opts Options) ([]TupleError, error) {
	opts = opts.withDefaults()
	observed, err := answerSet(db.A, f)
	if err != nil {
		return nil, err
	}
	vars := logic.FreeVars(f)
	count := rel.TupleCount(db.A.N, len(vars))
	out := make([]TupleError, 0, count)
	idx := map[uint64]int{}
	rel.ForEachTuple(db.A.N, len(vars), func(t rel.Tuple) bool {
		idx[t.Key()] = len(out)
		_, inObs := observed[t.Key()]
		out = append(out, TupleError{Tuple: t.Clone(), Observed: inObs, H: new(big.Rat)})
		return true
	})
	var evalErr error
	err = db.ForEachWorld(opts.MaxEnumAtoms, func(b *rel.Structure, nu *big.Rat) bool {
		actual, err := answerSet(b, f)
		if err != nil {
			evalErr = err
			return false
		}
		for key, i := range idx {
			_, inActual := actual[key]
			if inActual != out[i].Observed {
				out[i].H.Add(out[i].H, nu)
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if evalErr != nil {
		return nil, evalErr
	}
	return out, nil
}

// TupleError is the expected error of one answer tuple.
type TupleError struct {
	// Tuple is the instantiation of the free variables.
	Tuple rel.Tuple
	// Observed reports whether the tuple is in psi^A.
	Observed bool
	// H is Pr[psi(ā)^B ≠ psi(ā)^A].
	H *big.Rat
}
