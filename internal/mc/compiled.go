package mc

import (
	"math/bits"

	"qrel/internal/unreliable"
	"qrel/internal/vm"
)

// Compiled kernels: the same samples as the interpreted kernels of
// mc.go, with the per-sample world materialization + tree-walk oracle
// replaced by bit-parallel bytecode evaluation (internal/vm) over
// batches of up to 64 worlds. The RNG draw sequence is preserved *per
// sample*: a batch draws each sample's world bits (and any auxiliary
// coins) in the scalar order before the next sample's, only the formula
// evaluation is deferred and vectorized. Combined with the boundary
// alignment of the driver's batches, a compiled run is byte-identical —
// estimate, LoopState checkpoints, lane aggregates, RangeDigest — to
// the interpreted run for the same stream.

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
// The generator state is hoisted into locals for the whole batch
// (HotRNG) and written back before returning, so a checkpoint taken at
// the batch boundary sees the advanced generator. The draws set their
// bits without branching: each is a coin flip the branch predictor
// cannot learn.
func drawWorlds(src *Source, muF []float64, cols []uint64, m int, xi float64, coins []uint64) {
	clear(cols)
	hot := src.Hot()
	for s := uint(0); s < uint(m); s++ {
		for i, mu := range muF {
			cols[i] |= below(hot.Float64(), mu) << s
		}
		for j := range coins {
			coins[j] |= below(hot.Float64(), xi) << s
		}
	}
	src.PutHot(hot)
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

// Kernel is the compiled kernel of the mean estimator, bit-identical
// to MeanKernel over the statistic cm compiles.
func (cm *CompiledMean) Kernel(db *unreliable.DB) Kernel {
	muF := db.UncertainMuF()
	need := 1
	for _, p := range cm.Progs {
		need = max(need, p.StackNeed())
	}
	return func(ln *Lane) func(m int) error {
		cols := make([]uint64, len(muF))
		stack := make([]uint64, need)
		var counts [64]int
		return func(m int) error {
			drawWorlds(ln.Src, muF, cols, m, 0, nil)
			full := BatchFull(m)
			clear(counts[:m])
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

// PaddedProgram is the compiled kernel of the padded estimator: per
// sample, the world bits then the two Bernoulli(ξ) padding coins, in
// the scalar order; per batch, one bit-parallel evaluation and a
// popcount into Hits.
func PaddedProgram(db *unreliable.DB, prog *vm.Program) PaddedKernel {
	muF := db.UncertainMuF()
	return func(xi float64) Kernel {
		return func(ln *Lane) func(m int) error {
			cols := make([]uint64, len(muF))
			stack := prog.NewStack()
			return func(m int) error {
				var coins [2]uint64
				drawWorlds(ln.Src, muF, cols, m, xi, coins[:])
				rc, rd := coins[0], coins[1]
				v := prog.EvalBatch(cols, BatchFull(m), stack)
				ln.Hits += bits.OnesCount64((v | rc) & rd)
				return nil
			}
		}
	}
}
