package core

import (
	"context"
	"fmt"
	"math/big"

	"qrel/internal/bdd"
	"qrel/internal/faultinject"
	"qrel/internal/karpluby"
	"qrel/internal/logic"
	"qrel/internal/mc"
	"qrel/internal/prop"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// Caps on one tuple's lineage: DNF terms, and BDD nodes unless the
// budget sets a tighter node cap (bddNodeCap).
const (
	maxLineageTerms = 1 << 16
	maxBDDNodes     = 1 << 20
)

// bddNodeCap is the lineage BDD node cap of a run under budget b.
func bddNodeCap(b Budget) int {
	if b.MaxBDDNodes > 0 {
		return min(b.MaxBDDNodes, maxBDDNodes)
	}
	return maxBDDNodes
}

// lineageForm returns a formula whose lineage is an existential kDNF:
// the query itself for existential queries, its NNF negation for
// universal ones (flipped = true). Conjunctive queries are existential.
func lineageForm(f logic.Formula) (logic.Formula, bool, error) {
	switch logic.Classify(f) {
	case logic.ClassQuantifierFree, logic.ClassConjunctive, logic.ClassExistential:
		return logic.NNF(f), false, nil
	case logic.ClassUniversal:
		return logic.NNF(logic.Not{F: f}), true, nil
	default:
		return nil, false, fmt.Errorf("core: lineage engines require an existential or universal query, got %v", logic.Classify(f))
	}
}

// tupleLineage grounds psi(ā) to a kDNF over a fresh atom index and
// returns the DNF together with the per-variable nu probabilities.
// Deterministic atoms (nu ∈ {0, 1}) are constant-folded away before the
// DNF distribution, so the lineage only mentions uncertain atoms — the
// step that makes the Theorem 5.4 pipeline practical on databases whose
// certain part is large. The DNF distribution — the potentially
// exponential step — polls ctx.
func tupleLineage(ctx context.Context, db *unreliable.DB, f logic.Formula, env logic.Env) (prop.DNF, prop.ProbAssignment, error) {
	ix := logic.NewAtomIndex()
	pf, err := logic.Ground(db.A, f, env, ix)
	if err != nil {
		return prop.DNF{}, nil, err
	}
	nu := prop.ProbAssignment(nuAssignment(db, ix))
	fixed := map[int]bool{}
	for i, p := range nu {
		if p.IsInt() { // nu ∈ {0, 1}
			fixed[i] = p.Sign() > 0
		}
	}
	pf = prop.Fold(pf, fixed)
	d, err := prop.ToDNFCtx(ctx, pf, ix.Len(), maxLineageTerms)
	if err != nil {
		return prop.DNF{}, nil, err
	}
	return d, nu, nil
}

// lineageProb returns Pr[B ⊨ psi(ā)] exactly for a formula prepared by
// lineageForm: the tuple's lineage kDNF is compiled to an OBDD on mgr,
// reset for it, so the manager picks its variable order from the DNF
// and its node budget holds per tuple; the diagram is counted once and
// complemented when lf stands for the negation of a universal query.
func lineageProb(ctx context.Context, mgr *bdd.BDD, db *unreliable.DB, lf logic.Formula, flipped bool, env logic.Env) (*big.Rat, error) {
	d, nu, err := tupleLineage(ctx, db, lf, env)
	if err != nil {
		return nil, err
	}
	mgr.Reset(d.NumVars)
	root, err := mgr.FromDNF(d)
	if err != nil {
		return nil, err
	}
	p, err := mgr.Prob(root, nu)
	if err != nil {
		return nil, err
	}
	if flipped {
		p.Sub(big.NewRat(1, 1), p)
	}
	return p, nil
}

// LineageBDD computes the exact reliability of an existential or
// universal query by compiling each tuple's Theorem 5.4 lineage to a
// BDD and evaluating nu(psi”) exactly. Exponential in the worst case
// (the problem is #P-hard, Proposition 3.2) but fast on many practical
// lineages. One manager serves the request, reset between tuples, and
// each tuple's diagram is capped at 1<<20 nodes, or at
// opts.Budget.MaxBDDNodes when that is smaller (bddNodeCap). The
// per-tuple loop, the BDD compilation and the count all poll ctx.
func LineageBDD(ctx context.Context, db *unreliable.DB, f logic.Formula, opts Options) (Result, error) {
	ctx = orBackground(ctx)
	opts = opts.withDefaults()
	if err := faultinject.Hit(faultinject.SiteLineageBDD); err != nil {
		return Result{}, err
	}
	lf, flipped, err := lineageForm(f)
	if err != nil {
		return Result{}, err
	}
	one := big.NewRat(1, 1)
	h := new(big.Rat)
	prep := logic.Prepare(f)
	mgr := bdd.New(0, bddNodeCap(opts.Budget)).WithContext(ctx)
	k, err := forEachFreeTuple(ctx, db.A, f, func(env logic.Env, t rel.Tuple) error {
		p, err := lineageProb(ctx, mgr, db, lf, flipped, env)
		if err != nil {
			return err
		}
		// H(ā) = Pr[psi(ā)^B ≠ psi(ā)^A].
		obs, err := prep.Holds(db.A, t)
		if err != nil {
			return err
		}
		if obs {
			h.Add(h, new(big.Rat).Sub(one, p))
		} else {
			h.Add(h, p)
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{Engine: "lineage-bdd", Class: logic.Classify(f)}
	setExact(&res, h, db.A.N, k)
	return res, nil
}

// LineageKL approximates the reliability of an existential or universal
// query with the paper's FPTRAS pipeline: per tuple ā, the Theorem 5.4
// lineage kDNF is handed to the Karp–Luby estimator, and per Corollary
// 5.5 the per-tuple accuracy is (ε/n^k, δ/n^k) so that the summed
// reliability satisfies Pr[|R − estimate| > ε] < δ.
//
// The per-tuple loop polls ctx. opts.Budget.MaxSamples bounds the total
// Karp–Luby samples: the FPTRAS guarantee is relative, so a partial run
// carries no usable bound — when the next tuple's required sample size
// would exceed the remaining budget the engine fails with
// ErrBudgetExceeded, letting the dispatcher degrade to an anytime
// absolute-error estimator instead.
//
// If usePaperReduction is set, each tuple uses the Theorem 5.3 binary
// encoding + #DNF route instead of the direct weighted estimator (the
// E10 ablation compares the two).
func LineageKL(ctx context.Context, db *unreliable.DB, f logic.Formula, opts Options, usePaperReduction bool) (Result, error) {
	engine := "lineage-karpluby"
	if usePaperReduction {
		engine = "lineage-karpluby-thm53"
	}
	var lf logic.Formula
	var flipped bool
	ctx, s, err := startSampling(ctx, faultinject.SiteLineageKL, engine, f, opts, func(f logic.Formula) (err error) {
		lf, flipped, err = lineageForm(f)
		return err
	})
	if err != nil {
		return Result{}, err
	}
	opts = s.opts
	// The direct weighted estimator runs its bit-identical batched
	// kernel unless the interpreter was asked for; the Theorem 5.3
	// reduction route stays on the scalar one. The faultinject probe lets
	// chaos campaigns force the interpreted path mid-run, exercising
	// mixed-mode clusters.
	eval := evalPlan{mode: EvalInterpreted}
	if opts.Eval != EvalInterpreted && !usePaperReduction {
		if err := faultinject.Hit(faultinject.SiteVMCompile); err != nil {
			eval.trail = []FallbackStep{{Engine: "vm", Err: err.Error()}}
		} else {
			eval.mode = EvalCompiled
		}
	}
	kernel := karpluby.ProbKernel(karpluby.ProbScalar)
	if eval.compiled() {
		kernel = karpluby.ProbBatched
	}
	return s.perTuple(ctx, db, f, false, eval, func(ctx context.Context, tc tupleCall) (mc.Estimate, error) {
		d, nu, err := tupleLineage(ctx, db, lf, tc.env)
		if err != nil {
			return mc.Estimate{}, err
		}
		var pl karpluby.Plan
		if usePaperReduction {
			pl, err = karpluby.PlanViaReduction(d, nu, tc.eps, tc.delta, karpluby.CountScalar)
		} else {
			pl, err = karpluby.PlanProb(d, nu, tc.eps, tc.delta, kernel)
		}
		if err != nil {
			return mc.Estimate{}, err
		}
		// The budget is held to the t this route will draw, before any draw.
		if opts.Budget.MaxSamples > 0 && pl.Samples > tc.left {
			return mc.Estimate{}, fmt.Errorf("%w: Karp–Luby needs %d more samples with %d of %d already drawn",
				ErrBudgetExceeded, pl.Samples, opts.Budget.MaxSamples-tc.left, opts.Budget.MaxSamples)
		}
		res, err := pl.Run(ctx, tc.stream)
		if err != nil {
			return mc.Estimate{}, err
		}
		p := res.Float()
		if flipped {
			p = 1 - p
		}
		return mc.Estimate{Value: p, Samples: res.Samples}, nil
	})
}
