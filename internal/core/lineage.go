package core

import (
	"context"
	"errors"
	"fmt"
	"math/big"

	"qrel/internal/bdd"
	"qrel/internal/checkpoint"
	"qrel/internal/faultinject"
	"qrel/internal/karpluby"
	"qrel/internal/logic"
	"qrel/internal/mc"
	"qrel/internal/prop"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

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
func tupleLineage(ctx context.Context, db *unreliable.DB, f logic.Formula, env logic.Env, maxTerms int) (prop.DNF, prop.ProbAssignment, error) {
	ix := logic.NewAtomIndex()
	pf, err := logic.Ground(db.A, f, env, ix)
	if err != nil {
		return prop.DNF{}, nil, err
	}
	nu := prop.ProbAssignment(nuAssignment(db, ix))
	fixed := map[int]bool{}
	for i, p := range nu {
		if p.Sign() == 0 {
			fixed[i] = false
		} else if p.Cmp(big.NewRat(1, 1)) == 0 {
			fixed[i] = true
		}
	}
	pf = prop.Fold(pf, fixed)
	d, err := prop.ToDNFCtx(ctx, pf, ix.Len(), maxTerms)
	if err != nil {
		return prop.DNF{}, nil, err
	}
	return d, nu, nil
}

// lineageProb returns Pr[B ⊨ psi(ā)] exactly for a formula prepared by
// lineageForm: the tuple's lineage kDNF is compiled to an OBDD — the
// manager picks its variable order from the DNF — under the node
// budget and ctx, counted once, and complemented when lf stands for
// the negation of a universal query.
func lineageProb(ctx context.Context, db *unreliable.DB, lf logic.Formula, flipped bool, env logic.Env, opts Options) (*big.Rat, error) {
	d, nu, err := tupleLineage(ctx, db, lf, env, opts.MaxLineageTerms)
	if err != nil {
		return nil, err
	}
	mgr := bdd.New(d.NumVars, opts.MaxBDDNodes).WithContext(ctx)
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
// lineages; bounded by opts.MaxBDDNodes (and opts.Budget.MaxBDDNodes,
// whichever is smaller). The per-tuple loop, the BDD compilation and
// the count all poll ctx.
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
	k, err := forEachFreeTuple(ctx, db.A, f, func(env logic.Env, _ rel.Tuple) error {
		p, err := lineageProb(ctx, db, lf, flipped, env, opts)
		if err != nil {
			return err
		}
		// H(ā) = Pr[psi(ā)^B ≠ psi(ā)^A].
		obs, err := logic.Eval(db.A, f, env)
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
	ctx = orBackground(ctx)
	opts = opts.withDefaults()
	if err := faultinject.Hit(faultinject.SiteLineageKL); err != nil {
		return Result{}, err
	}
	lf, flipped, err := lineageForm(f)
	if err != nil {
		return Result{}, err
	}
	engine := "lineage-karpluby"
	if usePaperReduction {
		engine = "lineage-karpluby-thm53"
	}
	// The direct weighted estimator runs its bit-identical batched
	// kernel unless the interpreter was asked for; the Theorem 5.3
	// reduction route stays on the scalar one. The faultinject probe lets
	// chaos campaigns force the interpreted path mid-run, exercising
	// mixed-mode clusters.
	evalMode := EvalInterpreted
	var evalTrail []FallbackStep
	if opts.Eval != EvalInterpreted && !usePaperReduction {
		if err := faultinject.Hit(faultinject.SiteVMCompile); err != nil {
			evalTrail = []FallbackStep{{Engine: "vm", Err: err.Error()}}
		} else {
			evalMode = EvalCompiled
		}
	}
	parallel := opts.Workers > 0
	src := mc.NewSource(opts.Seed)
	// streamState mirrors MonteCarlo: the parallel mode re-derives every
	// tuple's lanes from mc.TupleSeed(Seed, idx), so snapshots carry the
	// zero PRNG state and resume skips restoring it.
	streamState := func() mc.RNGState {
		if parallel {
			return mc.RNGState{}
		}
		return src.State()
	}
	run, resumeSt, err := newCkptRun(opts.Checkpoint, engine, f, opts)
	if err != nil {
		return Result{}, err
	}
	k := len(logic.FreeVars(f))
	normF := float64(1)
	for i := 0; i < k; i++ {
		normF *= float64(db.A.N)
	}
	epsT := opts.Eps / normF
	deltaT := opts.Delta / normF
	// plan sizes one tuple's FPTRAS on the route and kernel chosen above.
	kernel := karpluby.ProbKernel(karpluby.ProbScalar)
	if evalMode == EvalCompiled {
		kernel = karpluby.ProbBatched
	}
	plan := func(d prop.DNF, nu prop.ProbAssignment) (karpluby.Plan, error) {
		return karpluby.PlanProb(d, nu, epsT, deltaT, kernel)
	}
	if usePaperReduction {
		plan = func(d prop.DNF, nu prop.ProbAssignment) (karpluby.Plan, error) {
			return karpluby.PlanViaReduction(d, nu, epsT, deltaT, karpluby.CountScalar)
		}
	}
	hFloat := 0.0
	samples := 0
	startTuple := 0
	if resumeSt != nil {
		if !parallel {
			if err := src.SetState(resumeSt.RNG); err != nil {
				return Result{}, fmt.Errorf("%w: %v", checkpoint.ErrCorruptCheckpoint, err)
			}
		}
		startTuple = resumeSt.Tuple
		hFloat = resumeSt.HFloat
		samples = resumeSt.Samples
	}
	tupleIdx := 0
	lastSaved := samples
	// saveBoundary snapshots "tuples before nextTuple are fully
	// accumulated; the PRNG stream is at st", making a resumed run
	// bit-identical to an uninterrupted one.
	saveBoundary := func(nextTuple int, st mc.RNGState) error {
		if run == nil {
			return nil
		}
		lastSaved = samples
		return run.save(engineState{Tuple: nextTuple, HFloat: hFloat, Samples: samples, RNG: st})
	}
	_, err = forEachFreeTuple(ctx, db.A, f, func(env logic.Env, _ rel.Tuple) error {
		idx := tupleIdx
		tupleIdx++
		if idx < startTuple {
			// Already accumulated by the restored snapshot.
			return nil
		}
		preTuple := streamState()
		d, nu, err := tupleLineage(ctx, db, lf, env, opts.MaxLineageTerms)
		if err != nil {
			return err
		}
		pl, err := plan(d, nu)
		if err != nil {
			return err
		}
		// The budget is held to the t this route will draw, before any draw.
		if opts.Budget.MaxSamples > 0 && samples+pl.Samples > opts.Budget.MaxSamples {
			// Snapshot before failing: rerun with a larger budget (and
			// Resume set) continues here instead of starting over.
			if serr := saveBoundary(idx, preTuple); serr != nil {
				return serr
			}
			return fmt.Errorf("%w: Karp–Luby needs %d more samples with %d of %d already drawn",
				ErrBudgetExceeded, pl.Samples, samples, opts.Budget.MaxSamples)
		}
		res, err := pl.Run(ctx, streamFor(opts, mc.TupleSeed(opts.Seed, idx), src))
		if err != nil {
			// A mid-tuple cancellation surfaces here; snapshot the tuple's
			// own start so a restart replays it in full.
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				if serr := saveBoundary(idx, preTuple); serr != nil {
					return serr
				}
			}
			return err
		}
		p := res.Float()
		samples += res.Samples
		if flipped {
			p = 1 - p
		}
		obs, err := logic.Eval(db.A, f, env)
		if err != nil {
			return err
		}
		if obs {
			hFloat += 1 - p
		} else {
			hFloat += p
		}
		if run != nil && samples-lastSaved >= run.every() {
			return saveBoundary(idx+1, streamState())
		}
		return nil
	})
	if err != nil {
		if run != nil && samples != lastSaved &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			// Final checkpoint on cancellation (graceful drain): the next
			// unprocessed tuple is tupleIdx and the stream is at src.State(),
			// so a restarted run resumes here at full accuracy. The original
			// cancellation error still propagates.
			if serr := saveBoundary(tupleIdx, streamState()); serr != nil {
				return Result{}, serr
			}
		}
		return Result{}, err
	}
	if run != nil && samples != lastSaved {
		// Completion snapshot: resuming a finished run is an instant replay.
		if serr := saveBoundary(tupleIdx, streamState()); serr != nil {
			return Result{}, serr
		}
	}
	rFloat := 1 - hFloat/normF
	return Result{
		HFloat:        hFloat,
		RFloat:        rFloat,
		Arity:         k,
		Engine:        engine,
		Guarantee:     AbsoluteError,
		Eps:           opts.Eps,
		Delta:         opts.Delta,
		Samples:       samples,
		Class:         logic.Classify(f),
		Seed:          opts.Seed,
		Resumed:       run.wasResumed(),
		EvalMode:      evalMode,
		FallbackTrail: evalTrail,
	}, nil
}

// NuExistential computes Pr[B ⊨ psi] for an existential (or universal,
// via complement) Boolean query, exactly with the BDD engine. It is the
// quantity for which Theorem 5.4 provides an FPTRAS; exposed for the
// experiment harness.
func NuExistential(ctx context.Context, db *unreliable.DB, f logic.Formula, opts Options) (*big.Rat, error) {
	ctx = orBackground(ctx)
	opts = opts.withDefaults()
	if len(logic.FreeVars(f)) != 0 {
		return nil, fmt.Errorf("core: NuExistential requires a Boolean query")
	}
	lf, flipped, err := lineageForm(f)
	if err != nil {
		return nil, err
	}
	return lineageProb(ctx, db, lf, flipped, logic.Env{}, opts)
}
