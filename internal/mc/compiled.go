package mc

import (
	"math/bits"

	"qrel/internal/unreliable"
	"qrel/internal/vm"
)

// Compiled kernels: the same samples as the interpreted kernels of
// mc.go, with the per-sample world materialization + tree-walk oracle
// replaced by bit-parallel bytecode evaluation (internal/vm) of the
// block's columns. Both read their worlds from the same block draw
// (block.go), so a compiled run is byte-identical — estimate, LoopState
// checkpoints, lane aggregates, RangeDigest — to the interpreted run
// for the same stream.

// CompiledMean is the compiled form of the mean-of-symmetric-
// difference statistic (the monte-carlo-direct and monte-carlo-rare
// engines): one program per answer-domain tuple, the observed answer
// per tuple, and the normalization denominator. For each sampled world,
// the statistic is |{t : prog_t(world) != base_t}| / normF — exactly
// |answerSet(world) Δ answerSet(observed)| / normF.
type CompiledMean struct {
	Progs []*vm.Program
	Base  []bool
	NormF float64
}

// Kernel is the compiled mean statistic, bit-identical to MeanKernel
// over the statistic cm compiles.
func (cm *CompiledMean) Kernel(db *unreliable.DB) MeanStat {
	need := 1
	for _, p := range cm.Progs {
		need = max(need, p.StackNeed())
	}
	return func(rare bool) Kernel {
		w := newWorlds(db, rare)
		return func(ln *Lane) func(m int) error {
			cols := make([]uint64, len(w.t))
			stack := make([]uint64, need)
			var counts [blockSize]int
			return func(m int) error {
				full := w.block(ln.Src, cols, m, 0, nil)
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
}

// PaddedProgram is the compiled kernel of the padded estimator: per
// block, the world columns then the two Bernoulli(ξ) padding coins, one
// bit-parallel evaluation and a popcount into Hits.
func PaddedProgram(db *unreliable.DB, prog *vm.Program) PaddedKernel {
	return func(xi float64) Kernel {
		w, coin := newWorlds(db, false), coinThreshold(xi)
		return func(ln *Lane) func(m int) error {
			cols := make([]uint64, len(w.t))
			stack := prog.NewStack()
			return func(m int) error {
				var coins [2]uint64
				full := w.block(ln.Src, cols, m, coin, coins[:])
				rc, rd := coins[0], coins[1]
				v := prog.EvalBatch(cols, full, stack)
				ln.Hits += bits.OnesCount64((v | rc) & rd)
				return nil
			}
		}
	}
}
