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
// with opts.Eval = EvalInterpreted — load one world at a time into a
// reused buffer and interpret the query, prepared once. The
// enumeration polls ctx between blocks of worlds.
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
		prep := logic.Prepare(f)
		observed, err := truths(db.A, prep)
		if err != nil {
			return Result{}, err
		}
		total, part = uint64(1)<<uint(u), interpretedWorlds(db, prep, observed)
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
// reference the compiled one is tested against: each flip mask in
// lo..hi-1 is loaded into one reusable world and its answer compared
// with the observed one, tuple by tuple.
func interpretedWorlds(db *unreliable.DB, p *logic.Prepared, observed []bool) func(ctx context.Context, lo, hi uint64, acc *big.Int) error {
	return func(ctx context.Context, lo, hi uint64, acc *big.Int) error {
		walk := db.Weights().Walk(lo)
		buf := db.NewWorldBuf()
		cols := make([]uint64, db.NumUncertain())
		var term big.Int
		for mask := lo; mask < hi; mask++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := faultinject.Hit(faultinject.SiteWorldWorker); err != nil {
				return err
			}
			for i := range cols {
				cols[i] = mask >> uint(i) & 1
			}
			diff, err := mismatches(buf.Load(cols, 0), p, observed)
			if err != nil {
				return err
			}
			if diff > 0 {
				acc.Add(acc, term.Mul(walk.Weight(), term.SetInt64(int64(diff))))
			}
			walk.Next()
		}
		return nil
	}
}

// truths is ψ^s as the engines compare answers: ψ(ā) on s for every
// ā ∈ A^k, in rel.ForEachTuple order. Like mismatches, it passes the
// answer-set fault site once.
func truths(s *rel.Structure, p *logic.Prepared) ([]bool, error) {
	if err := faultinject.Hit(faultinject.SiteAnswerSet); err != nil {
		return nil, err
	}
	var out []bool
	if err := p.Truths(s, func(_ int, v bool) { out = append(out, v) }); err != nil {
		return nil, err
	}
	return out, nil
}

// mismatches returns |ψ^s Δ ψ^A| for observed = truths(A), without
// materializing ψ^s.
func mismatches(s *rel.Structure, p *logic.Prepared, observed []bool) (int, error) {
	if err := faultinject.Hit(faultinject.SiteAnswerSet); err != nil {
		return 0, err
	}
	diff := 0
	err := p.Truths(s, func(i int, v bool) {
		if v != observed[i] {
			diff++
		}
	})
	return diff, err
}

// ExpectedErrorPerTuple computes, for every tuple ā ∈ A^k, the exact
// expected error H_psi(ā)(D) = Pr[psi(ā)^B ≠ psi(ā)^A] by world
// enumeration. The sum of the returned values is H_psi(D); the
// per-tuple values tell the user which answer tuples are unreliable.
func ExpectedErrorPerTuple(db *unreliable.DB, f logic.Formula, opts Options) ([]TupleError, error) {
	opts = opts.withDefaults()
	prep := logic.Prepare(f)
	observed, err := truths(db.A, prep)
	if err != nil {
		return nil, err
	}
	out := make([]TupleError, 0, len(observed))
	rel.ForEachTuple(db.A.N, len(logic.FreeVars(f)), func(t rel.Tuple) bool {
		out = append(out, TupleError{Tuple: t.Clone(), Observed: observed[len(out)], H: new(big.Rat)})
		return true
	})
	var evalErr error
	err = db.ForEachWorld(opts.MaxEnumAtoms, func(b *rel.Structure, nu *big.Rat) bool {
		if evalErr = faultinject.Hit(faultinject.SiteAnswerSet); evalErr != nil {
			return false
		}
		evalErr = prep.Truths(b, func(i int, v bool) {
			if v != out[i].Observed {
				out[i].H.Add(out[i].H, nu)
			}
		})
		return evalErr == nil
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
