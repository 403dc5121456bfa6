package mc

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"qrel/internal/unreliable"
	"qrel/internal/vm"
)

// Compiled estimators: the same estimation loops as mc.go, with the
// per-sample world materialization + tree-walk oracle replaced by
// bit-parallel bytecode evaluation (internal/vm) over batches of up
// to 64 worlds. The RNG draw sequence is preserved *per sample*: a
// batch draws each sample's world bits (and any auxiliary coins) in
// the scalar order before the next sample's, only the formula
// evaluation is deferred and vectorized. Combined with the boundary
// alignment of sampleAssignedLanesBatch, a compiled run is
// byte-identical — estimate, LoopState checkpoints, lane aggregates,
// RangeDigest — to the interpreted run for the same seed, worker
// count, and lane range.

// CompiledMean is the compiled form of the mean-of-symmetric-
// difference statistic (the monte-carlo-direct engine): one program
// per answer-domain tuple, the observed answer per tuple, and the
// normalization denominator. For each sampled world, the statistic is
// |{t : prog_t(world) != base_t}| / normF — exactly
// |answerSet(world) Δ answerSet(observed)| / normF.
type CompiledMean struct {
	Progs []*vm.Program
	Base  []bool
	NormF float64
}

// drawWorlds fills cols with m sampled worlds, sample s in bit s of
// every column, consuming the lane's stream exactly as the scalar
// samplers do: per sample one Float64 per uncertain atom in canonical
// order (the atom flips when the draw is below its muF), then one
// Float64 per entry of coins, whose bit s is set when that draw is
// below xi.
//
// On a lane with a serializable Source the generator state is hoisted
// into locals for the whole batch (HotRNG) and written back before
// returning, so a checkpoint taken at the batch boundary sees the
// advanced generator; other lanes draw through the Drawer. The draws
// set their bits without branching: each is a coin flip the branch
// predictor cannot learn.
func drawWorlds(d Drawer, muF []float64, cols []uint64, m int, xi float64, coins []uint64) {
	clear(cols)
	if hot, ok := d.Hot(); ok {
		for s := uint(0); s < uint(m); s++ {
			for i, mu := range muF {
				cols[i] |= below(hot.Float64(), mu) << s
			}
			for j := range coins {
				coins[j] |= below(hot.Float64(), xi) << s
			}
		}
		d.PutHot(hot)
		return
	}
	for s := uint(0); s < uint(m); s++ {
		for i, mu := range muF {
			cols[i] |= below(d.Float64(), mu) << s
		}
		for j := range coins {
			coins[j] |= below(d.Float64(), xi) << s
		}
	}
}

// below returns 1 when f < p and 0 otherwise, in a form the compiler
// lowers to a flag-to-register move rather than a jump.
func below(f, p float64) uint64 {
	var b uint64
	if f < p {
		b = 1
	}
	return b
}

// step builds the batched per-lane step of the compiled mean
// estimator.
func (cm *CompiledMean) step(db *unreliable.DB) func(ln *Lane) func(m int) error {
	muF := db.UncertainMuF()
	need := 1
	for _, p := range cm.Progs {
		if n := p.StackNeed(); n > need {
			need = n
		}
	}
	return func(ln *Lane) func(m int) error {
		d := NewDrawer(ln)
		cols := make([]uint64, len(muF))
		stack := make([]uint64, need)
		var counts [64]int
		return func(m int) error {
			drawWorlds(d, muF, cols, m, 0, nil)
			full := batchFull(m)
			for s := 0; s < m; s++ {
				counts[s] = 0
			}
			for ti, p := range cm.Progs {
				v := p.EvalBatch(cols, full, stack)
				if cm.Base[ti] {
					v ^= full
				}
				for v != 0 {
					counts[bits.TrailingZeros64(v)]++
					v &= v - 1
				}
			}
			// Fold per-sample, in sample order, with the identical float
			// division the scalar step performs — Sum is order-sensitive.
			for s := 0; s < m; s++ {
				ln.Sum += float64(counts[s]) / cm.NormF
			}
			return nil
		}
	}
}

// EstimateMeanCompiled is EstimateMean with a compiled statistic; see
// EstimateMean for the anytime contract.
func EstimateMeanCompiled(ctx context.Context, db *unreliable.DB, cm *CompiledMean, eps, delta float64, maxSamples int, rng *rand.Rand) (Estimate, error) {
	return estimateMeanLanesCompiled(ctx, db, cm, eps, delta, maxSamples, []*Lane{{Rng: rng}}, 1, nil)
}

// EstimateMeanCkCompiled is EstimateMeanCk with a compiled statistic.
func EstimateMeanCkCompiled(ctx context.Context, db *unreliable.DB, cm *CompiledMean, eps, delta float64, maxSamples int, src *Source, ck *Ckpt) (Estimate, error) {
	return estimateMeanLanesCompiled(ctx, db, cm, eps, delta, maxSamples, []*Lane{{Src: src, Rng: rand.New(src)}}, 1, ck)
}

// EstimateMeanParCompiled is EstimateMeanPar with a compiled
// statistic.
func EstimateMeanParCompiled(ctx context.Context, db *unreliable.DB, cm *CompiledMean, eps, delta float64, maxSamples int, seed int64, par Par, ck *Ckpt) (Estimate, error) {
	lanes, workers := LanesFor(seed, par)
	return estimateMeanLanesCompiled(ctx, db, cm, eps, delta, maxSamples, lanes, workers, ck)
}

func estimateMeanLanesCompiled(ctx context.Context, db *unreliable.DB, cm *CompiledMean, eps, delta float64, maxSamples int, lanes []*Lane, workers int, ck *Ckpt) (Estimate, error) {
	requested, err := HoeffdingSampleSize(eps, delta)
	if err != nil {
		if maxSamples <= 0 {
			return Estimate{}, err
		}
		requested = maxSamples + 1 // any realized count reads as partial
	}
	t, _ := clampSamples(requested, maxSamples)
	err = sampleLanesBatch(ctx, "hoeffding", lanes, workers, t, ck, cm.step(db))
	if err != nil {
		return Estimate{}, err
	}
	drawn, _, sum := laneTotals(lanes)
	if drawn == 0 {
		return Estimate{}, fmt.Errorf("%w: %v", ErrNoSamples, ctx.Err())
	}
	est := Estimate{Value: sum / float64(drawn), Samples: drawn, Requested: requested, Eps: eps, Delta: delta, Method: "hoeffding"}
	if drawn < requested {
		est.Partial = true
		est.Eps = WidenedHoeffdingEps(delta, drawn)
	}
	return est, nil
}

// EstimateMeanRangeCompiled is EstimateMeanRange with a compiled
// statistic: the lane subrange [rng.Lo,rng.Hi) of the rng.Total-lane
// split, producing per-lane aggregates byte-identical to both the
// interpreted range run and the corresponding lanes of a single-node
// run.
func EstimateMeanRangeCompiled(ctx context.Context, db *unreliable.DB, cm *CompiledMean, eps, delta float64, maxSamples int, seed int64, rng Range, workers int, ck *Ckpt) (RangeResult, error) {
	if err := rng.Validate(); err != nil {
		return RangeResult{}, err
	}
	requested, err := HoeffdingSampleSize(eps, delta)
	if err != nil {
		if maxSamples <= 0 {
			return RangeResult{}, err
		}
		requested = maxSamples + 1
	}
	t, _ := clampSamples(requested, maxSamples)
	all := SplitLanes(seed, rng.Total)
	AssignQuotas(all, t)
	sub := all[rng.Lo:rng.Hi]
	workers = Par{Lanes: rng.Len(), Workers: workers}.withDefaults().Workers
	if err := sampleAssignedLanesBatch(ctx, rangeMethod("hoeffding", rng), sub, workers, ck, cm.step(db)); err != nil {
		return RangeResult{}, err
	}
	drawn, _, _ := laneTotals(sub)
	if drawn == 0 {
		return RangeResult{}, fmt.Errorf("%w: %v", ErrNoSamples, ctx.Err())
	}
	res := RangeResult{Range: rng, Method: "hoeffding", Requested: requested, Lanes: make([]LaneAgg, 0, len(sub))}
	for _, ln := range sub {
		res.Lanes = append(res.Lanes, LaneAgg{Idx: ln.Idx, Quota: ln.Quota, Drawn: ln.Drawn, Hits: ln.Hits, Sum: ln.Sum})
	}
	return res, nil
}

// paddedStepCompiled builds the batched per-lane step of the padded
// estimator: per sample, the world bits then the two Bernoulli(ξ)
// padding coins, in the scalar order; per batch, one bit-parallel
// evaluation and a popcount into Hits.
func paddedStepCompiled(db *unreliable.DB, prog *vm.Program, xi float64) func(ln *Lane) func(m int) error {
	muF := db.UncertainMuF()
	return func(ln *Lane) func(m int) error {
		d := NewDrawer(ln)
		cols := make([]uint64, len(muF))
		stack := prog.NewStack()
		return func(m int) error {
			var coins [2]uint64
			drawWorlds(d, muF, cols, m, xi, coins[:])
			rc, rd := coins[0], coins[1]
			v := prog.EvalBatch(cols, batchFull(m), stack)
			ln.Hits += bits.OnesCount64((v | rc) & rd)
			return nil
		}
	}
}

// EstimateNuPaddedCompiled is EstimateNuPadded with a compiled query
// program.
func EstimateNuPaddedCompiled(ctx context.Context, db *unreliable.DB, prog *vm.Program, xi, eps, delta float64, maxSamples int, rng *rand.Rand) (Estimate, error) {
	return estimateNuPaddedLanesCompiled(ctx, db, prog, xi, eps, delta, maxSamples, []*Lane{{Rng: rng}}, 1, nil)
}

// EstimateNuPaddedCkCompiled is EstimateNuPaddedCk with a compiled
// query program.
func EstimateNuPaddedCkCompiled(ctx context.Context, db *unreliable.DB, prog *vm.Program, xi, eps, delta float64, maxSamples int, src *Source, ck *Ckpt) (Estimate, error) {
	return estimateNuPaddedLanesCompiled(ctx, db, prog, xi, eps, delta, maxSamples, []*Lane{{Src: src, Rng: rand.New(src)}}, 1, ck)
}

// EstimateNuPaddedParCompiled is EstimateNuPaddedPar with a compiled
// query program.
func EstimateNuPaddedParCompiled(ctx context.Context, db *unreliable.DB, prog *vm.Program, xi, eps, delta float64, maxSamples int, seed int64, par Par, ck *Ckpt) (Estimate, error) {
	lanes, workers := LanesFor(seed, par)
	return estimateNuPaddedLanesCompiled(ctx, db, prog, xi, eps, delta, maxSamples, lanes, workers, ck)
}

func estimateNuPaddedLanesCompiled(ctx context.Context, db *unreliable.DB, prog *vm.Program, xi, eps, delta float64, maxSamples int, lanes []*Lane, workers int, ck *Ckpt) (Estimate, error) {
	if xi == 0 {
		xi = DefaultXi
	}
	half := eps / 2
	requested, err := PaperSampleSize(xi, half, delta)
	if err != nil {
		if maxSamples <= 0 {
			return Estimate{}, err
		}
		requested = maxSamples + 1
	}
	t, _ := clampSamples(requested, maxSamples)
	err = sampleLanesBatch(ctx, "padded", lanes, workers, t, ck, paddedStepCompiled(db, prog, xi))
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
	est := Estimate{Value: alpha, Samples: drawn, Requested: requested, Eps: eps, Delta: delta, Method: "padded"}
	if drawn < requested {
		est.Partial = true
		est.Eps = widenedPaddedEps(xi, delta, drawn)
	}
	return est, nil
}
