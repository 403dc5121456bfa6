package mc

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"

	"qrel/internal/rel"
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

// condSampler draws a world conditioned on at least one uncertain atom
// flipping, with exactly the conditional distribution: the index of
// the first flipped atom i is drawn with probability
// mu_i·Π_{j<i}(1−mu_j)/Z (one Float64), atoms before i are kept, atom i
// flipped, and atoms after i flip independently (one Float64 each).
// The flip-event data (mus, zf) is shared read-only across lanes; the
// world buffer is per-lane, so sampling allocates nothing.
type condSampler struct {
	mus []float64
	zf  float64
	buf *unreliable.WorldBuf
}

func (cs *condSampler) sample(rng *rand.Rand) *rel.Structure {
	r := rng.Float64() * cs.zf
	first := len(cs.mus) - 1
	prefixKeep := 1.0
	for i, mu := range cs.mus {
		p := prefixKeep * mu
		if r < p {
			first = i
			break
		}
		r -= p
		prefixKeep *= 1 - mu
	}
	cs.buf.Reset()
	cs.buf.ToggleUncertain(first)
	for i := first + 1; i < len(cs.mus); i++ {
		if rng.Float64() < cs.mus[i] {
			cs.buf.ToggleUncertain(i)
		}
	}
	return cs.buf.World()
}

// EstimateMeanRare estimates E[f(B)] for a [0,1]-valued statistic with
// f(A) = 0 whenever no atom flips (true for the normalized Hamming
// distance), with absolute error eps and confidence 1−delta, by
// conditioning on the flip event: the estimate is Z·mean of t samples
// of f on conditional worlds, with t = ⌈Z²·ln(2/δ)/(2ε²)⌉ — a factor Z²
// below the unconditional Hoeffding size. Falls back to EstimateMean
// when Z ≥ 1 (a sure flip exists). Conditional worlds are a stream the
// bit-parallel batch layout does not cover, so the statistic is a Go
// function and the kernel interpreted.
//
// Anytime semantics match EstimateMean: an early stop (ctx canceled or
// maxSamples reached, 0 = unlimited) yields the partial estimate with
// Partial = true and Eps = Z·ε_Hoeffding(t') widened to the realized
// sample count.
func EstimateMeanRare(ctx context.Context, db *unreliable.DB, f func(*rel.Structure) (float64, error), eps, delta float64, maxSamples int, s Stream) (Estimate, error) {
	if eps <= 0 || delta <= 0 || delta >= 1 {
		return Estimate{}, fmt.Errorf("mc: need eps > 0 and 0 < delta < 1, got eps=%v delta=%v", eps, delta)
	}
	zf, _ := flipEventProb(db).Float64()
	if zf <= 0 {
		// Nothing can flip: the statistic is identically 0.
		return Estimate{Value: 0, Samples: 0, Eps: eps, Delta: delta, Method: "rare-event"}, nil
	}
	if zf >= 1 {
		// Z is a function of the database alone, so a job that fell back
		// here on its first run falls back identically on resume.
		est, _, err := EstimateMean(ctx, MeanKernel(db, f), eps, delta, maxSamples, s)
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
	// atom: the conditional sampler's preconditions hold.
	mus := db.UncertainMuF()
	lanes, err := Run(ctx, "rare-event", clampSamples(requested, maxSamples), true, s, meanKernel(f, func(ln *Lane) func() *rel.Structure {
		cs := &condSampler{mus: mus, zf: zf, buf: db.NewWorldBuf()}
		return func() *rel.Structure { return cs.sample(ln.Rng) }
	}))
	if err != nil {
		return Estimate{}, err
	}
	drawn, _, sum := laneTotals(lanes)
	if drawn == 0 {
		return Estimate{}, fmt.Errorf("%w: %v", ErrNoSamples, ctx.Err())
	}
	est := Estimate{Value: zf * sum / float64(drawn), Samples: drawn, Requested: requested, Eps: eps, Delta: delta, Method: "rare-event"}
	if drawn < requested {
		est.Partial = true
		// The conditional mean is known to ε_H(t') absolute error; scaling
		// by Z scales the error bound by Z as well.
		est.Eps = math.Min(1, zf*widenedHoeffdingEps(delta, drawn))
	}
	return est, nil
}
