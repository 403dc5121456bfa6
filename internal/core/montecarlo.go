package core

import (
	"context"

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
// Anytime semantics: a run cut short by ctx or opts.Budget.MaxSamples
// is Degraded — estimated tuples keep their (possibly widened)
// accuracy, the rest contribute the midpoint 1/2 at error 1/2, and Eps
// is re-summed; only a stop before any sample is an error.
func MonteCarlo(ctx context.Context, db *unreliable.DB, f logic.Formula, opts Options) (Result, error) {
	ctx, s, err := startSampling(ctx, faultinject.SiteMonteCarlo, "monte-carlo", f, opts, polyTime("MonteCarlo"))
	if err != nil {
		return Result{}, err
	}
	plan := planEval(db, f, s.opts)
	// The prepared query is immutable, so every lane shares it; the tuple
	// is only read while EstimateNuPadded runs.
	prep := logic.Prepare(f)
	return s.perTuple(ctx, db, f, true, plan, func(ctx context.Context, tc tupleCall) (mc.Estimate, error) {
		var kernel mc.PaddedKernel
		if plan.compiled() {
			kernel = mc.PaddedProgram(db, plan.progs[tc.idx])
		} else {
			kernel = mc.PaddedPred(db, func(b *rel.Structure) (bool, error) { return prep.Holds(b, tc.t) })
		}
		return mc.EstimateNuPadded(ctx, kernel, mc.DefaultXi, tc.eps, tc.delta, tc.left, tc.stream)
	})
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
	ctx, s, err := startSampling(ctx, faultinject.SiteMCDirect, "monte-carlo-direct", f, opts, polyTime("MonteCarloDirect"))
	if err != nil {
		return Result{}, err
	}
	opts = s.opts
	kernel, k, normF, plan, err := hammingStat(db, f, opts)
	if err != nil {
		return Result{}, err
	}
	// Lane-range mode executes only the assigned subrange of the
	// Total-lane split and returns the raw per-lane aggregates for the
	// coordinator to merge.
	stream := s.stream(opts.Seed)
	stream.Range = opts.LaneRange
	stream.Ckpt = s.run.loopCkpt(s.resume)
	est, aggs, err := mc.EstimateMean(ctx, kernel, opts.Eps, opts.Delta, opts.Budget.MaxSamples, stream)
	if err != nil {
		return Result{}, err
	}
	res := s.result(est, est.Value*normF, k, plan)
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
	ctx, s, err := startSampling(ctx, faultinject.SiteMCRare, "monte-carlo-rare", f, opts, polyTime("MonteCarloRare"))
	if err != nil {
		return Result{}, err
	}
	opts = s.opts
	kernel, k, normF, plan, err := hammingStat(db, f, opts)
	if err != nil {
		return Result{}, err
	}
	stream := s.stream(opts.Seed)
	stream.Ckpt = s.run.loopCkpt(s.resume)
	est, err := mc.EstimateMeanRare(ctx, db, kernel, opts.Eps, opts.Delta, opts.Budget.MaxSamples, stream)
	if err != nil {
		return Result{}, err
	}
	return s.result(est, est.Value*normF, k, plan), nil
}

// hammingStat is the statistic of the mean engines, the normalized
// Hamming distance |ψ^A Δ ψ^B| / n^k between the observed answer set
// and a sampled world's, as the plan evaluates it: compiled, one
// program per answer tuple, or interpreted, the query prepared once and
// compared with the observed truths tuple by tuple. It returns the
// arity k and the normalizer n^k with it.
func hammingStat(db *unreliable.DB, f logic.Formula, opts Options) (mc.MeanStat, int, float64, evalPlan, error) {
	prep := logic.Prepare(f)
	observed, err := truths(db.A, prep)
	if err != nil {
		return nil, 0, 0, evalPlan{}, err
	}
	k := len(logic.FreeVars(f))
	normF := tupleCount(db.A.N, k)
	plan := planEval(db, f, opts)
	if plan.compiled() {
		return (&mc.CompiledMean{Progs: plan.progs, Base: plan.base, NormF: normF}).Kernel(db), k, normF, plan, nil
	}
	return mc.MeanKernel(db, func(b *rel.Structure) (float64, error) {
		diff, err := mismatches(b, prep, observed)
		if err != nil {
			return 0, err
		}
		return float64(diff) / normF, nil
	}), k, normF, plan, nil
}
