package mc

import (
	"context"
	"fmt"
	"math"
	"math/big"

	"qrel/internal/unreliable"
)

// This file implements a rare-event variance reduction for the
// absolute-error estimators: when every error probability is small, the
// world B equals the observed database A with probability close to 1,
// and any [0,1] statistic f with f(A) = 0 — such as the normalized
// Hamming distance |psi^A Δ psi^B|/n^k — is almost always sampled at 0.
// Conditioning on the event "at least one atom flipped" (whose
// probability Z is computable exactly in closed form) and estimating
// the conditional mean needs a factor Z² fewer samples for the same
// absolute error: E[f] = Z · E[f | ≥1 flip].

// flipEventProb returns Z = 1 − Π (1 − mu_i), the probability that at
// least one uncertain atom flips (mu = 1 atoms make it 1).
func flipEventProb(db *unreliable.DB) *big.Rat {
	one := big.NewRat(1, 1)
	none := new(big.Rat).Set(one)
	if len(db.SureFlips()) > 0 {
		return one
	}
	for _, atom := range db.UncertainAtoms() {
		none.Mul(none, new(big.Rat).Sub(one, db.ErrorProb(atom)))
	}
	return none.Sub(one, none)
}

// EstimateMeanRare estimates E[f(B)] for a [0,1]-valued statistic with
// f(A) = 0 whenever no atom flips (true for the normalized Hamming
// distance), with absolute error eps and confidence 1−delta, by
// conditioning on the flip event: the estimate is Z·mean of t samples
// of the statistic k on conditional worlds, with t = ⌈Z²·ln(2/δ)/(2ε²)⌉
// — a factor Z² below the unconditional Hoeffding size. Falls back to
// EstimateMean when Z ≥ 1 (a sure flip exists). The conditional worlds
// are drawn in blocks like every other law (block.go), so k is
// MeanKernel or CompiledMean.Kernel, bit-identical to each other.
//
// Anytime semantics match EstimateMean: an early stop (ctx canceled or
// maxSamples reached, 0 = unlimited) yields the partial estimate with
// Partial = true and Eps = Z·ε_Hoeffding(t') widened to the realized
// sample count.
func EstimateMeanRare(ctx context.Context, db *unreliable.DB, k MeanStat, eps, delta float64, maxSamples int, s Stream) (Estimate, error) {
	if eps <= 0 || delta <= 0 || delta >= 1 {
		return Estimate{}, fmt.Errorf("mc: need eps > 0 and 0 < delta < 1, got eps=%v delta=%v", eps, delta)
	}
	zf, _ := flipEventProb(db).Float64()
	if zf <= 0 {
		// Nothing can flip: the statistic is identically 0.
		return Estimate{Value: 0, Samples: 0, Eps: eps, Delta: delta, Method: rareMethod}, nil
	}
	if zf >= 1 {
		// Z is a function of the database alone, so a job that fell back
		// here on its first run falls back identically on resume.
		est, _, err := EstimateMean(ctx, k, eps, delta, maxSamples, s)
		return est, err
	}
	// Conditional mean must be estimated to eps/Z absolute error.
	requested := int(math.Ceil(zf * zf * math.Log(2/delta) / (2 * eps * eps)))
	if requested < 1 {
		requested = 1
	}
	if requested > 1e9 {
		if maxSamples <= 0 {
			return Estimate{}, fmt.Errorf("mc: sample size %d exceeds 1e9; relax eps/delta", requested)
		}
		requested = maxSamples + 1
	}
	// zf < 1 here, so there are no sure flips and at least one uncertain
	// atom: the conditional law's preconditions hold.
	lanes, err := Run(ctx, rareMethod, clampSamples(requested, maxSamples), true, s, k(true))
	if err != nil {
		return Estimate{}, err
	}
	drawn, _, sum := laneTotals(lanes)
	if drawn == 0 {
		return Estimate{}, fmt.Errorf("%w: %v", ErrNoSamples, ctx.Err())
	}
	est := Estimate{Value: zf * sum / float64(drawn), Samples: drawn, Requested: requested, Eps: eps, Delta: delta, Method: rareMethod}
	if drawn < requested {
		est.Partial = true
		// The conditional mean is known to ε_H(t') absolute error; scaling
		// by Z scales the error bound by Z as well.
		est.Eps = math.Min(1, zf*widenedHoeffdingEps(delta, drawn))
	}
	return est, nil
}
