// Package mc implements the randomized absolute-error approximation
// algorithms of Section 5: plain Monte Carlo estimation of query
// probabilities and expected errors over the world space Omega(D)
// (Corollary 5.5), and the ξ-padding estimator of Theorem 5.12 with its
// sample-size bound derived from Lemma 5.11.
package mc

import (
	"context"
	"fmt"
	"math"
	"math/big"

	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// ErrNoSamples is wrapped in errors returned when an estimator is
// canceled (or budgeted to zero) before drawing a single sample: with no
// data there is no partial estimate to degrade to.
var ErrNoSamples = fmt.Errorf("mc: canceled before any sample was drawn")

// Estimate is the result of a randomized approximation.
type Estimate struct {
	// Value is the estimated quantity.
	Value float64
	// Samples is the number of sampled worlds actually drawn.
	Samples int
	// Requested is the sample size implied by the requested accuracy;
	// Samples < Requested when the run was cut short.
	Requested int
	// Eps and Delta are the guarantee parameters the estimate satisfies:
	// Pr[|Value − truth| > Eps] < Delta. When Partial is set, Eps is the
	// honestly *widened* accuracy achievable with the samples actually
	// drawn (same Delta) — the anytime guarantee.
	Eps, Delta float64
	// Partial reports an anytime estimate: the run was stopped early by
	// cancellation or a sample budget, and Eps was recomputed from the
	// realized sample count.
	Partial bool
	// Method names the estimator and the order its draws consume the
	// stream (MeanMethod, "padded/…", "rare-event/…"; see WorldStream).
	Method string
}

// WorldStream names the order in which the world-sampling estimators
// consume a lane's generator: 64-sample blocks, atom by atom, each
// decided bit-sliced against its 64-bit threshold (block.go). The
// method strings of those estimators — in checkpoints, lane-range
// results and Estimate.Method — carry it, so a build that draws its
// worlds in another order refuses their checkpoints and lane aggregates
// instead of splicing two streams.
const WorldStream = "block64"

// The method strings of the world-sampling estimators.
const (
	// MeanMethod is EstimateMean's, the one a lane-range run reports.
	MeanMethod       = "hoeffding/" + WorldStream
	paddedMethod     = "padded/" + WorldStream
	structuralMethod = "padded-structural/" + WorldStream
	rareMethod       = "rare-event/" + WorldStream
)

// The anytime contract of every estimator in this package: when the
// run is cut short — the context polled before every block, or
// the sample budget — after ≥ 1 samples, the estimator returns the
// partial mean with Partial = true and a widened Eps valid at the same
// Delta; when it is cut short before the first sample, it returns an
// error wrapping ErrNoSamples and the context's error.

// clampSamples applies the budget cap (0 = none) to the requested
// sample size.
func clampSamples(t, maxSamples int) int {
	if maxSamples > 0 && t > maxSamples {
		return maxSamples
	}
	return t
}

// widenedHoeffdingEps returns the absolute error achievable by a
// t-sample mean of [0,1] variables at confidence 1 − delta:
// ε(t) = sqrt(ln(2/δ) / 2t) — the inverse of hoeffdingSampleSize,
// capped at 1 (an absolute error of 1 on a [0,1] quantity is vacuous
// but honest).
func widenedHoeffdingEps(delta float64, t int) float64 {
	if t <= 0 {
		return 1
	}
	return math.Min(1, math.Sqrt(math.Log(2/delta)/(2*float64(t))))
}

// widenedPaddedEps inverts PaperSampleSize at the realized sample count:
// the padded estimator run at ε/2 with t = (9/2ξ(ε/2)²)·ln(1/δ) samples
// achieves, after t' samples, ε(t') = 2·sqrt(9·ln(1/δ) / (2ξt')).
func widenedPaddedEps(xi, delta float64, t int) float64 {
	if t <= 0 {
		return 1
	}
	return math.Min(1, 2*math.Sqrt(9*math.Log(1/delta)/(2*xi*float64(t))))
}

// hoeffdingSampleSize returns the number of samples of a [0,1]-valued
// variable needed so that the sample mean deviates from the expectation
// by more than eps with probability below delta:
// t = ⌈ln(2/δ) / (2ε²)⌉.
func hoeffdingSampleSize(eps, delta float64) (int, error) {
	if eps <= 0 || delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("mc: need eps > 0 and 0 < delta < 1, got eps=%v delta=%v", eps, delta)
	}
	t := math.Log(2/delta) / (2 * eps * eps)
	if t > 1e9 {
		return 0, fmt.Errorf("mc: sample size %.3g exceeds 1e9; relax eps/delta", t)
	}
	return int(math.Ceil(t)), nil
}

// PaperSampleSize returns the paper's t(ε, δ) from the proof of Theorem
// 5.12: t = ⌈(9 / 2ξε²) · ln(1/δ)⌉.
func PaperSampleSize(xi, eps, delta float64) (int, error) {
	if xi <= 0 || xi >= 0.5 {
		return 0, fmt.Errorf("mc: xi must lie in (0, 1/2), got %v", xi)
	}
	if eps <= 0 || delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("mc: need eps > 0 and 0 < delta < 1, got eps=%v delta=%v", eps, delta)
	}
	t := 9 / (2 * xi * eps * eps) * math.Log(1/delta)
	if t > 1e9 {
		return 0, fmt.Errorf("mc: sample size %.3g exceeds 1e9; relax eps/delta", t)
	}
	return int(math.Ceil(t)), nil
}

// hoeffdingPlan is the prologue shared by EstimateMean and MergeMean:
// the sample size the accuracy implies and the number the budget lets
// the run draw. An unaffordable accuracy is an error only without a
// sample budget; with one the run is an anytime pass whose every
// realized count reads as partial.
func hoeffdingPlan(eps, delta float64, maxSamples int) (requested, t int, err error) {
	requested, err = hoeffdingSampleSize(eps, delta)
	if err != nil {
		if maxSamples <= 0 {
			return 0, 0, err
		}
		requested = maxSamples + 1
	}
	return requested, clampSamples(requested, maxSamples), nil
}

// hoeffdingEstimate is the matching epilogue: fold the per-lane
// aggregates in lane-index order — float addition is not associative,
// and this order is the estimate's definition — and widen eps from the
// true cross-lane total when the run was cut short. The caller turns
// Samples == 0 into its ErrNoSamples.
func hoeffdingEstimate(aggs []LaneAgg, requested int, eps, delta float64) Estimate {
	drawn, sum := 0, 0.0
	for _, a := range aggs {
		drawn += a.Drawn
		sum += a.Sum
	}
	est := Estimate{Value: sum / float64(drawn), Samples: drawn, Requested: requested, Eps: eps, Delta: delta, Method: MeanMethod}
	if drawn < requested {
		est.Partial = true
		est.Eps = widenedHoeffdingEps(delta, drawn)
	}
	return est
}

// EstimateMean estimates the expectation of a [0,1]-valued
// polynomial-time computable statistic over random worlds
// B ∈ Omega(D), with absolute error eps and confidence 1−delta
// (Hoeffding). The statistic is k — MeanKernel for a Go function,
// CompiledMean.Kernel for compiled programs — and the stream s names
// the draws; alongside the Estimate it returns the raw per-lane
// aggregates, which for a lane-range stream are what the coordinator
// merges (MergeMean) and attests (RangeDigest), the Estimate then being
// the range's own partial reading.
//
// The estimator is *anytime*: when ctx is canceled or maxSamples
// (0 = unlimited) stops the run early, the partial mean is returned
// with Partial = true and Eps widened to the accuracy the realized
// sample count supports. Only a stop before the very first sample is an
// error (wrapping ErrNoSamples).
func EstimateMean(ctx context.Context, k MeanStat, eps, delta float64, maxSamples int, s Stream) (Estimate, []LaneAgg, error) {
	requested, t, err := hoeffdingPlan(eps, delta, maxSamples)
	if err != nil {
		return Estimate{}, nil, err
	}
	lanes, err := Run(ctx, MeanMethod, t, true, s, k(false))
	if err != nil {
		return Estimate{}, nil, err
	}
	aggs := make([]LaneAgg, len(lanes))
	for i, ln := range lanes {
		aggs[i] = LaneAgg{Idx: ln.Idx, Quota: ln.Quota, Drawn: ln.Drawn, Hits: ln.Hits, Sum: ln.Sum}
	}
	est := hoeffdingEstimate(aggs, requested, eps, delta)
	if est.Samples == 0 {
		return Estimate{}, nil, fmt.Errorf("%w: %v", ErrNoSamples, ctx.Err())
	}
	return est, aggs, nil
}

// A MeanStat is a [0,1]-valued statistic of a sampled world awaiting
// the law its worlds are drawn from: Omega(D) (rare = false, the
// law EstimateMean uses) or Omega(D) conditioned on at least one
// uncertain atom flipping (rare = true, EstimateMeanRare's). The
// estimator picks the law, so the statistic is written once for both.
type MeanStat func(rare bool) Kernel

// MeanKernel is the interpreted mean statistic: each sample of a block
// is materialized as a world and handed to f. It is the reference the
// compiled kernel is tested against, and the only kernel for
// statistics internal/vm cannot compile.
func MeanKernel(db *unreliable.DB, f func(*rel.Structure) (float64, error)) MeanStat {
	return func(rare bool) Kernel {
		w := newWorlds(db, rare)
		return func(ln *Lane) func(m int) error {
			cols := make([]uint64, len(w.t))
			buf := db.NewWorldBuf()
			return func(m int) error {
				w.block(ln.Src, cols, m, 0, nil)
				for s := 0; s < m; s++ {
					v, err := f(buf.Load(cols, uint(s)))
					if err != nil {
						return fmt.Errorf("mc: evaluating sample %d: %w", ln.Drawn+s, err)
					}
					if v < 0 || v > 1 {
						return fmt.Errorf("mc: sample value %v outside [0,1]", v)
					}
					ln.Sum += v
				}
				return nil
			}
		}
	}
}

// laneTotals merges the per-lane aggregates in lane-index order.
func laneTotals(lanes []*Lane) (drawn, hits int, sum float64) {
	for _, ln := range lanes {
		drawn += ln.Drawn
		hits += ln.Hits
		sum += ln.Sum
	}
	return drawn, hits, sum
}

// DefaultXi is the ξ used by EstimateNuPadded when the caller passes 0.
// The paper fixes ξ ∈ (0, 1/2) before seeing the database or the
// accuracy parameters.
const DefaultXi = 0.25

// A PaddedKernel is a query awaiting its padding parameter: the
// estimator resolves ξ (DefaultXi for 0) and instantiates the kernel
// with it, so the coins a kernel flips and the ξ the estimate is
// recovered with cannot disagree.
type PaddedKernel func(xi float64) Kernel

// EstimateNuPadded estimates nu(psi) with the construction from the
// proof of Theorem 5.12: the query is padded to
// psi' = (psi ∨ Rc) ∧ Rd with two fresh ξ-probability atoms, giving a
// variable X with ξ² ≤ E[X] = p ≤ ξ < 1/2 that satisfies the
// preconditions of Lemma 5.11; the estimate is recovered as
// α = (X̃ − ξ²)/(ξ − ξ²). Following the paper, the algorithm runs at
// ε/2 so the final guarantee is Pr[|α − nu(psi)| > ε] < δ.
//
// The padding is realized algebraically by two independent Bernoulli(ξ)
// coins per sample, which has exactly the distribution of the paper's
// database modification D' (EstimateNuPaddedStructural is the literal
// construction, equivalence verified in tests and E8). The query is
// the kernel k: PaddedPred for a Go predicate, PaddedProgram for a
// compiled one.
//
// Anytime semantics match EstimateMean: an early stop (ctx canceled or
// maxSamples reached, 0 = unlimited) yields the partial estimate with
// Partial = true and Eps widened by inverting the Theorem 5.12 sample
// bound at the realized count.
func EstimateNuPadded(ctx context.Context, k PaddedKernel, xi, eps, delta float64, maxSamples int, s Stream) (Estimate, error) {
	if xi == 0 {
		xi = DefaultXi
	}
	return estimatePadded(ctx, paddedMethod, k(xi), xi, eps, delta, maxSamples, s)
}

// estimatePadded sizes, runs and recovers a padded estimation whose
// kernel counts psi' hits.
func estimatePadded(ctx context.Context, method string, k Kernel, xi, eps, delta float64, maxSamples int, s Stream) (Estimate, error) {
	requested, err := PaperSampleSize(xi, eps/2, delta)
	if err != nil {
		if maxSamples <= 0 {
			return Estimate{}, err
		}
		requested = maxSamples + 1
	}
	lanes, err := Run(ctx, method, clampSamples(requested, maxSamples), true, s, k)
	if err != nil {
		return Estimate{}, err
	}
	drawn, hits, _ := laneTotals(lanes)
	if drawn == 0 {
		return Estimate{}, fmt.Errorf("%w: %v", ErrNoSamples, ctx.Err())
	}
	xTilde := float64(hits) / float64(drawn)
	alpha := (xTilde - xi*xi) / (xi - xi*xi)
	// The algebra can leave [0,1] by sampling noise; probabilities can't.
	alpha = math.Max(0, math.Min(1, alpha))
	est := Estimate{Value: alpha, Samples: drawn, Requested: requested, Eps: eps, Delta: delta, Method: method}
	if drawn < requested {
		est.Partial = true
		est.Eps = widenedPaddedEps(xi, delta, drawn)
	}
	return est, nil
}

// PaddedPred is the interpreted kernel of the padded estimator: per
// block, the world columns then the two Bernoulli(ξ) padding coins Rc
// and Rd; per sample, pred on the materialized world and a hit when
// ψ' = (ψ ∨ Rc) ∧ Rd holds.
func PaddedPred(db *unreliable.DB, pred func(*rel.Structure) (bool, error)) PaddedKernel {
	return func(xi float64) Kernel {
		w, coin := newWorlds(db, false), coinThreshold(xi)
		return func(ln *Lane) func(m int) error {
			cols := make([]uint64, len(w.t))
			buf := db.NewWorldBuf()
			return func(m int) error {
				var coins [2]uint64
				w.block(ln.Src, cols, m, coin, coins[:])
				for s := uint(0); s < uint(m); s++ {
					v, err := pred(buf.Load(cols, s))
					if err != nil {
						return fmt.Errorf("mc: evaluating sample %d: %w", ln.Drawn+int(s), err)
					}
					if (v || coins[0]>>s&1 == 1) && coins[1]>>s&1 == 1 {
						ln.Hits++
					}
				}
				return nil
			}
		}
	}
}

// PadRel is the name of the fresh unary relation added by padDB.
const PadRel = "R_pad"

// padDB performs the literal database modification from the proof of
// Theorem 5.12: it extends the vocabulary with a fresh empty unary
// relation R and two constants c ≠ d, and gives the atoms Rc and Rd
// error probability ξ. The universe must have at least two elements to
// interpret c and d distinctly. The returned atoms are Rc and Rd; a
// query psi over the original vocabulary evaluates identically on the
// padded worlds, so psi' = (psi ∨ Rc) ∧ Rd realizes the padded variable.
func padDB(db *unreliable.DB, xi *big.Rat) (*unreliable.DB, rel.GroundAtom, rel.GroundAtom, error) {
	var zero rel.GroundAtom
	if db.A.N < 2 {
		return nil, zero, zero, fmt.Errorf("mc: universe of size %d cannot interpret two distinct constants", db.A.N)
	}
	if _, exists := db.A.Voc.Rel(PadRel); exists {
		return nil, zero, zero, fmt.Errorf("mc: vocabulary already contains %q", PadRel)
	}
	voc := db.A.Voc.Clone()
	if err := voc.AddRel(rel.RelSym{Name: PadRel, Arity: 1}); err != nil {
		return nil, zero, zero, err
	}
	if err := voc.AddConst("c_pad"); err != nil {
		return nil, zero, zero, err
	}
	if err := voc.AddConst("d_pad"); err != nil {
		return nil, zero, zero, err
	}
	a, err := rel.NewStructure(db.A.N, voc)
	if err != nil {
		return nil, zero, zero, err
	}
	for _, sym := range db.A.Voc.Rels {
		for _, tup := range db.A.Rel(sym.Name).Tuples() {
			if err := a.Add(sym.Name, tup); err != nil {
				return nil, zero, zero, err
			}
		}
	}
	for name, e := range db.A.Consts {
		if err := a.SetConst(name, e); err != nil {
			return nil, zero, zero, err
		}
	}
	if err := a.SetConst("c_pad", 0); err != nil {
		return nil, zero, zero, err
	}
	if err := a.SetConst("d_pad", 1); err != nil {
		return nil, zero, zero, err
	}
	padded := unreliable.New(a)
	db.A.ForEachGroundAtom(func(atom rel.GroundAtom) bool {
		mu := db.ErrorProb(atom)
		if mu.Sign() != 0 {
			padded.MustSetError(atom, mu)
		}
		return true
	})
	rc := rel.GroundAtom{Rel: PadRel, Args: rel.Tuple{0}}
	rd := rel.GroundAtom{Rel: PadRel, Args: rel.Tuple{1}}
	if err := padded.SetError(rc, xi); err != nil {
		return nil, zero, zero, err
	}
	if err := padded.SetError(rd, xi); err != nil {
		return nil, zero, zero, err
	}
	return padded, rc, rd, nil
}

// EstimateNuPaddedStructural is EstimateNuPadded implemented with the
// paper's literal database modification: the padded database D' is
// materialized with padDB and the samples evaluate
// psi' = (psi ∨ Rc) ∧ Rd on its worlds. It exists to validate the
// algebraic shortcut; the two estimators have identical sample
// distributions.
func EstimateNuPaddedStructural(ctx context.Context, db *unreliable.DB, pred func(*rel.Structure) (bool, error), xi, eps, delta float64, maxSamples int, s Stream) (Estimate, error) {
	if xi == 0 {
		xi = DefaultXi
	}
	padded, rc, rd, err := padDB(db, new(big.Rat).SetFloat64(xi))
	if err != nil {
		return Estimate{}, err
	}
	w := newWorlds(padded, false)
	k := func(ln *Lane) func(m int) error {
		cols := make([]uint64, len(w.t))
		buf := padded.NewWorldBuf()
		return func(m int) error {
			w.block(ln.Src, cols, m, 0, nil)
			for s := 0; s < m; s++ {
				b := buf.Load(cols, uint(s))
				v, err := pred(b)
				if err != nil {
					return fmt.Errorf("mc: evaluating sample %d: %w", ln.Drawn+s, err)
				}
				if (v || b.Holds(rc.Rel, rc.Args)) && b.Holds(rd.Rel, rd.Args) {
					ln.Hits++
				}
			}
			return nil
		}
	}
	return estimatePadded(ctx, structuralMethod, k, xi, eps, delta, maxSamples, s)
}
