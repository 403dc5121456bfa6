package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"qrel/internal/checkpoint"
	"qrel/internal/faultinject"
	"qrel/internal/logic"
	"qrel/internal/mc"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// MonteCarlo approximates the reliability of an arbitrary
// polynomial-time evaluable query (here: any first-order query, whose
// data complexity is polynomial) with absolute error ε and confidence
// 1−δ, per Theorem 5.12. Per tuple ā it runs the paper's padded
// estimator at accuracy (ε/n^k, δ/n^k) and sums, exactly as in the
// k-ary case of the proof.
//
// Anytime semantics: when ctx is canceled or opts.Budget.MaxSamples
// runs out mid-computation, tuples already estimated keep their
// (possibly widened) per-tuple accuracy, each unestimated tuple
// contributes the midpoint 1/2 with worst-case error 1/2, and the
// result carries Degraded = true with Eps honestly re-summed from the
// realized per-tuple errors. Only a cancellation that arrives before
// any sample at all is an error.
func MonteCarlo(ctx context.Context, db *unreliable.DB, f logic.Formula, opts Options) (Result, error) {
	ctx = orBackground(ctx)
	opts = opts.withDefaults()
	if err := faultinject.Hit(faultinject.SiteMonteCarlo); err != nil {
		return Result{}, err
	}
	if cls := logic.Classify(f); cls == logic.ClassSecondOrder {
		// Second-order evaluation is not polynomial-time; Theorem 5.12
		// does not apply. (WorldEnum still handles small instances.)
		return Result{}, fmt.Errorf("core: MonteCarlo requires a polynomial-time evaluable query, got %v", cls)
	}
	parallel := opts.Workers > 0
	src := mc.NewSource(opts.Seed)
	// streamState is the PRNG fingerprint of a snapshot boundary. The
	// parallel mode has no single sequential stream — every tuple's lanes
	// re-derive deterministically from mc.TupleSeed(Seed, idx) — so it
	// saves the zero state and resume skips restoring it; the Lanes
	// fingerprint field keeps the two modes from resuming each other.
	streamState := func() mc.RNGState {
		if parallel {
			return mc.RNGState{}
		}
		return src.State()
	}
	run, resumeSt, err := newCkptRun(opts.Checkpoint, "monte-carlo", f, opts)
	if err != nil {
		return Result{}, err
	}
	plan := planEval(db, f, opts)
	vars := logic.FreeVars(f)
	k := len(vars)
	normF := float64(1)
	for i := 0; i < k; i++ {
		normF *= float64(db.A.N)
	}
	epsT := opts.Eps / normF
	deltaT := opts.Delta / normF
	hFloat := 0.0
	epsSum := 0.0
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
		epsSum = resumeSt.EpsSum
		samples = resumeSt.Samples
	}
	degraded := false
	stopped := false // ctx canceled or budget exhausted: midpoint-fill the rest
	// kernel is the tuple's query as the plan evaluates it. logic.Eval
	// binds quantified variables in the environment it is handed, so
	// each lane of the interpreted kernel evaluates in its own clone,
	// made once when the lane starts.
	kernel := func(idx int, env logic.Env) mc.PaddedKernel {
		if plan.compiled() {
			return mc.PaddedProgram(db, plan.progs[idx])
		}
		return func(xi float64) mc.Kernel {
			return func(ln *mc.Lane) func(int) error {
				own := env.Clone()
				pred := func(b *rel.Structure) (bool, error) { return logic.Eval(b, f, own) }
				return mc.PaddedPred(db, pred)(xi)(ln)
			}
		}
	}
	env := logic.Env{}
	tupleIdx := 0
	lastSaved := samples
	var ckErr error
	// saveBoundary snapshots "tuples before nextTuple are fully
	// accumulated; the PRNG stream is at st". A run resumed from such a
	// snapshot replays exactly the stream an uninterrupted run consumes,
	// so the final estimate is bit-identical.
	saveBoundary := func(nextTuple int, st mc.RNGState) bool {
		if run == nil {
			return true
		}
		lastSaved = samples
		if err := run.save(engineState{Tuple: nextTuple, HFloat: hFloat, EpsSum: epsSum, Samples: samples, RNG: st}); err != nil {
			ckErr = err
			return false
		}
		return true
	}
	var innerErr error
	rel.ForEachTuple(db.A.N, k, func(t rel.Tuple) bool {
		idx := tupleIdx
		tupleIdx++
		if idx < startTuple {
			// Already accumulated by the restored snapshot.
			return true
		}
		budgetLeft := 0 // unlimited
		if opts.Budget.MaxSamples > 0 {
			budgetLeft = opts.Budget.MaxSamples - samples
		}
		if !stopped && (ctx.Err() != nil || (opts.Budget.MaxSamples > 0 && budgetLeft <= 0)) {
			stopped, degraded = true, true
			// The boundary snapshot that makes a drained run resumable: a
			// restart replays from tuple idx at full accuracy.
			if !saveBoundary(idx, streamState()) {
				return false
			}
		}
		if stopped {
			hFloat += 0.5
			epsSum += 0.5
			return true
		}
		for i, v := range vars {
			env[v] = t[i]
		}
		obs, err := logic.Eval(db.A, f, env)
		if err != nil {
			innerErr = err
			return false
		}
		preTuple := streamState()
		est, err := mc.EstimateNuPadded(ctx, kernel(idx, env), opts.Xi, epsT, deltaT, budgetLeft,
			streamFor(opts, mc.TupleSeed(opts.Seed, idx), src))
		if errors.Is(err, mc.ErrNoSamples) {
			// Canceled before this tuple could draw anything: snapshot its
			// start, then fill it (and the rest) with the midpoint.
			stopped, degraded = true, true
			if !saveBoundary(idx, preTuple) {
				return false
			}
			hFloat += 0.5
			epsSum += 0.5
			return true
		}
		if err != nil {
			innerErr = err
			return false
		}
		if est.Partial {
			// The tuple was cut short mid-estimation. Snapshot the state at
			// its start — excluding the partial draws — so a resumed run
			// replays it in full; keep its widened contribution only for
			// this run's degraded result.
			stopped, degraded = true, true
			if !saveBoundary(idx, preTuple) {
				return false
			}
		}
		samples += est.Samples
		epsSum += est.Eps
		if obs {
			hFloat += 1 - est.Value
		} else {
			hFloat += est.Value
		}
		if run != nil && !stopped && samples-lastSaved >= run.every() {
			if !saveBoundary(idx+1, streamState()) {
				return false
			}
		}
		return true
	})
	if ckErr != nil {
		return Result{}, ckErr
	}
	if innerErr != nil {
		return Result{}, innerErr
	}
	if run != nil && !stopped && samples != lastSaved {
		// Completion snapshot: resuming a finished run is an instant replay.
		if !saveBoundary(tupleIdx, streamState()) {
			return Result{}, ckErr
		}
	}
	if degraded && samples == 0 {
		// Nothing was estimated at all; there is no partial result to
		// report honestly.
		return Result{}, fmt.Errorf("%w: canceled or out of budget before any sample", mc.ErrNoSamples)
	}
	eps := opts.Eps
	if degraded {
		eps = math.Min(1, epsSum/normF)
	}
	return Result{
		HFloat:        hFloat,
		RFloat:        1 - hFloat/normF,
		Arity:         k,
		Engine:        "monte-carlo",
		Guarantee:     AbsoluteError,
		Eps:           eps,
		Delta:         opts.Delta,
		Samples:       samples,
		Class:         logic.Classify(f),
		Degraded:      degraded,
		Seed:          opts.Seed,
		Resumed:       run.wasResumed(),
		EvalMode:      plan.mode,
		FallbackTrail: plan.trail,
	}, nil
}

// MonteCarloDirect approximates the reliability by sampling worlds and
// averaging the normalized Hamming distance |psi^A Δ psi^B| / n^k
// directly — a single Hoeffding-bounded estimator instead of Corollary
// 5.5's n^k per-tuple estimators. It needs one query evaluation per
// sampled world per tuple but only ⌈ln(2/δ)/2ε²⌉ worlds total, which is
// dramatically cheaper for k > 0; the E10 ablation quantifies the gap.
//
// This is the runtime's anytime engine of last resort: a cancellation
// or sample budget mid-run yields the partial estimate with Degraded =
// true and the honestly widened Hoeffding Eps for the realized sample
// count.
func MonteCarloDirect(ctx context.Context, db *unreliable.DB, f logic.Formula, opts Options) (Result, error) {
	ctx = orBackground(ctx)
	opts = opts.withDefaults()
	if err := faultinject.Hit(faultinject.SiteMCDirect); err != nil {
		return Result{}, err
	}
	if cls := logic.Classify(f); cls == logic.ClassSecondOrder {
		return Result{}, fmt.Errorf("core: MonteCarloDirect requires a polynomial-time evaluable query, got %v", cls)
	}
	src := mc.NewSource(opts.Seed)
	run, resumeSt, err := newCkptRun(opts.Checkpoint, "monte-carlo-direct", f, opts)
	if err != nil {
		return Result{}, err
	}
	kernel, k, normF, plan, err := hammingStat(db, f, opts)
	if err != nil {
		return Result{}, err
	}
	stream := streamFor(opts, opts.Seed, src)
	if opts.LaneRange != nil {
		// Lane-range mode: execute only the assigned subrange of the
		// Total-lane split and return the raw per-lane aggregates for the
		// coordinator to merge.
		stream = mc.Stream{Seed: opts.Seed, Range: opts.LaneRange, Workers: rangeWorkers(opts)}
	}
	stream.Ckpt = run.loopCkpt(resumeSt)
	est, aggs, err := mc.EstimateMean(ctx, kernel, opts.Eps, opts.Delta, opts.Budget.MaxSamples, stream)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		HFloat:        est.Value * normF,
		RFloat:        1 - est.Value,
		Arity:         k,
		Engine:        "monte-carlo-direct",
		Guarantee:     AbsoluteError,
		Eps:           est.Eps,
		Delta:         opts.Delta,
		Samples:       est.Samples,
		Class:         logic.Classify(f),
		Degraded:      est.Partial,
		Seed:          opts.Seed,
		Resumed:       run.wasResumed(),
		EvalMode:      plan.mode,
		FallbackTrail: plan.trail,
	}
	if opts.LaneRange != nil {
		// HFloat/RFloat are partial-range values: a range always reads as
		// cut short of the full run's sample size, which says nothing
		// about the merged estimate, so the requested accuracy is echoed.
		sum := 0.0
		for _, a := range aggs {
			sum += a.Sum
		}
		res.HFloat = sum * normF / float64(est.Samples)
		res.Eps, res.Degraded = opts.Eps, false
		res.LaneRange = &LaneRangeResult{Range: *opts.LaneRange, Method: est.Method, Requested: est.Requested, NormF: normF, Lanes: aggs}
	}
	return res, nil
}

// MonteCarloRare is MonteCarloDirect with rare-event conditioning: it
// estimates the normalized Hamming distance — which is zero whenever no
// atom flips — conditioned on the flip event, cutting the sample count
// by a factor Z² where Z = Pr[some atom flips]. The estimator of choice
// when error probabilities are small (the regime the paper's
// introduction cares about: "even if the error probabilities of the
// atomic statements are small..."). Anytime semantics match
// MonteCarloDirect.
func MonteCarloRare(ctx context.Context, db *unreliable.DB, f logic.Formula, opts Options) (Result, error) {
	ctx = orBackground(ctx)
	opts = opts.withDefaults()
	if err := faultinject.Hit(faultinject.SiteMCRare); err != nil {
		return Result{}, err
	}
	if cls := logic.Classify(f); cls == logic.ClassSecondOrder {
		return Result{}, fmt.Errorf("core: MonteCarloRare requires a polynomial-time evaluable query, got %v", cls)
	}
	src := mc.NewSource(opts.Seed)
	run, resumeSt, err := newCkptRun(opts.Checkpoint, "monte-carlo-rare", f, opts)
	if err != nil {
		return Result{}, err
	}
	kernel, k, normF, plan, err := hammingStat(db, f, opts)
	if err != nil {
		return Result{}, err
	}
	stream := streamFor(opts, opts.Seed, src)
	stream.Ckpt = run.loopCkpt(resumeSt)
	est, err := mc.EstimateMeanRare(ctx, db, kernel, opts.Eps, opts.Delta, opts.Budget.MaxSamples, stream)
	if err != nil {
		return Result{}, err
	}
	return Result{
		HFloat:        est.Value * normF,
		RFloat:        1 - est.Value,
		Arity:         k,
		Engine:        "monte-carlo-rare",
		Guarantee:     AbsoluteError,
		Eps:           est.Eps,
		Delta:         opts.Delta,
		Samples:       est.Samples,
		Class:         logic.Classify(f),
		Degraded:      est.Partial,
		Seed:          opts.Seed,
		Resumed:       run.wasResumed(),
		EvalMode:      plan.mode,
		FallbackTrail: plan.trail,
	}, nil
}

// hammingStat is the statistic of the mean engines, the normalized
// Hamming distance |ψ^A Δ ψ^B| / n^k between the observed answer set
// and a sampled world's, as the plan evaluates it: compiled, one
// program per answer tuple, or interpreted. It returns the arity k and
// the normalizer n^k with it.
func hammingStat(db *unreliable.DB, f logic.Formula, opts Options) (mc.MeanStat, int, float64, evalPlan, error) {
	observed, err := answerSet(db.A, f)
	if err != nil {
		return nil, 0, 0, evalPlan{}, err
	}
	k := len(logic.FreeVars(f))
	normF := float64(1)
	for i := 0; i < k; i++ {
		normF *= float64(db.A.N)
	}
	plan := planEval(db, f, opts)
	if plan.compiled() {
		return (&mc.CompiledMean{Progs: plan.progs, Base: plan.base, NormF: normF}).Kernel(db), k, normF, plan, nil
	}
	return mc.MeanKernel(db, func(b *rel.Structure) (float64, error) {
		actual, err := answerSet(b, f)
		if err != nil {
			return 0, err
		}
		return float64(symmetricDiffSize(observed, actual)) / normF, nil
	}), k, normF, plan, nil
}
