package core

import (
	"context"
	"errors"
	"math/big"
	"math/bits"
	"sync"

	"qrel/internal/unreliable"
)

// The exact enumeration kernel shared by WorldEnum (Theorem 4.2) and
// QuantifierFree (Proposition 3.1). Both sum, over the 2^d flip
// assignments of d uncertain atoms, the probability of the assignments
// on which a compiled formula disagrees with its observed value. The
// kernel lays the assignments out for vm.EvalBatch, 64 per block, and
// adds their probabilities as integers over one common denominator
// (unreliable.Weights), so the only rational normalisation is the one
// that turns the final sum into H.

// laneAtoms is the number of atoms whose flips index the lanes of a
// block; lanePattern[i] is the flip column of lane atom i (bit l of it
// is bit i of l), so lane l of a block carries assignment l of them.
const laneAtoms = 6

var lanePattern = [laneAtoms]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
}

// flipEnum walks the flip assignments of d atoms block by block. Atoms
// 0..lanes-1 vary across the lanes of a block; atoms lanes..d-1 are
// broadcast — constant within a block — and block b carries the
// assignment whose bits are b, so consecutive blocks visit the
// assignments in counting order. Per block the caller evaluates its
// programs over cols/full and marks the lanes that count; endBlock
// adds (broadcast weight) × Σ marked lane weights to an accumulator.
//
// A flipEnum is single-goroutine scratch, reusable across atom sets.
type flipEnum struct {
	// cols[i] is the flip column of atom i in the current block and
	// full the mask of live lanes: exactly EvalBatch's layout for a
	// program over the d flip bits.
	cols []uint64
	full uint64

	lanes int
	// Lane weights: entry l is Π_{i<lanes} (Flip[i] if bit i of l else
	// Keep[i]). Machine words when maxMarks × their sum fits in one —
	// the usual case — else big; exactly one of the two is non-nil.
	maxMarks uint64
	word     []uint64
	big      []*big.Int
	// Weight of the lanes marked so far in the current block.
	sumW uint64
	sumB big.Int

	// high is the numerator of the broadcast atoms' assignment, nil when
	// every atom is a lane atom; block is that assignment.
	high  *unreliable.Walk
	block uint64

	wordBuf [1 << laneAtoms]uint64
	tmp     big.Int
}

// newFlipEnum returns an enumerator whose blocks may mark each lane up
// to maxMarks times (the number of programs evaluated per block).
func newFlipEnum(maxMarks uint64) *flipEnum { return &flipEnum{maxMarks: maxMarks} }

// reset points the enumerator at the atoms of w, positioned at block.
// It allocates only when w has broadcast atoms or the lane weights
// overflow a machine word.
func (e *flipEnum) reset(w unreliable.Weights, block uint64) {
	d := w.Len()
	e.lanes = min(d, laneAtoms)
	e.full = ^uint64(0) >> (64 - 1<<uint(e.lanes))
	if cap(e.cols) < d {
		e.cols = make([]uint64, d)
	}
	e.cols = e.cols[:d]
	for i := 0; i < e.lanes; i++ {
		e.cols[i] = lanePattern[i] & e.full
	}
	// Σ lane weights = Π_{i<lanes} Den[i] < 2^(Σ BitLen).
	need := bits.Len64(e.maxMarks)
	for _, den := range w.Den[:e.lanes] {
		need += den.BitLen()
	}
	e.word, e.big = nil, nil
	if need <= 64 {
		e.word = e.wordBuf[:1]
		e.word[0] = 1
		for i := 0; i < e.lanes; i++ {
			keep, flip := w.Keep[i].Uint64(), w.Flip[i].Uint64()
			n := len(e.word)
			e.word = e.word[:2*n]
			for l := 0; l < n; l++ {
				e.word[n+l] = e.word[l] * flip
				e.word[l] *= keep
			}
		}
	} else {
		e.big = append(make([]*big.Int, 0, 1<<uint(e.lanes)), big.NewInt(1))
		for i := 0; i < e.lanes; i++ {
			for _, x := range e.big {
				e.big = append(e.big, new(big.Int).Mul(x, w.Flip[i]))
				x.Mul(x, w.Keep[i])
			}
		}
	}
	e.sumW = 0
	e.sumB.SetUint64(0)
	e.high, e.block = nil, block
	if d > e.lanes {
		e.high = w.Slice(e.lanes, d).Walk(block)
		for j := range e.cols[e.lanes:] {
			e.cols[e.lanes+j] = -(block >> uint(j) & 1) & e.full
		}
	}
}

// enumBlocks returns the number of blocks that cover the assignments
// of d atoms.
func enumBlocks(d int) uint64 { return 1 << uint(max(d-laneAtoms, 0)) }

// mark counts the lanes set in v once more in the current block.
func (e *flipEnum) mark(v uint64) {
	if e.word != nil {
		for ; v != 0; v &= v - 1 {
			e.sumW += e.word[bits.TrailingZeros64(v)]
		}
		return
	}
	for ; v != 0; v &= v - 1 {
		e.sumB.Add(&e.sumB, e.big[bits.TrailingZeros64(v)])
	}
}

// endBlock adds the weight of the block's marks to acc and steps to the
// next block.
func (e *flipEnum) endBlock(acc *big.Int) {
	sum := &e.sumB
	if e.word != nil {
		sum = e.tmp.SetUint64(e.sumW)
	}
	if sum.Sign() != 0 {
		if e.high != nil {
			sum = e.tmp.Mul(sum, e.high.Weight())
		}
		acc.Add(acc, sum)
		e.sumW = 0
		e.sumB.SetUint64(0)
	}
	if e.high == nil {
		return
	}
	e.high.Next()
	e.block++
	// The carry rewrote bits 0..t of the broadcast assignment.
	t := bits.TrailingZeros64(e.block)
	for j := 0; j <= t && e.lanes+j < len(e.cols); j++ {
		e.cols[e.lanes+j] = -(e.block >> uint(j) & 1) & e.full
	}
}

// sumRanges cuts [0,total) into at most workers contiguous ranges, runs
// part over each — on its own goroutine when there are several — and
// returns the sum of their integer partials; integer addition commutes,
// so the sum does not depend on the cut. The first range to fail
// cancels its siblings, and its error wins over the cancellations it
// provoked.
func sumRanges(ctx context.Context, total uint64, workers int, part func(ctx context.Context, lo, hi uint64, acc *big.Int) error) (*big.Int, error) {
	if workers < 1 {
		workers = 1
	}
	if uint64(workers) > total {
		workers = int(total)
	}
	if workers == 1 {
		acc := new(big.Int)
		return acc, part(ctx, 0, total, acc)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	accs := make([]big.Int, workers)
	errs := make([]error, workers)
	chunk := total / uint64(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := uint64(w)*chunk, uint64(w+1)*chunk
		if w == workers-1 {
			hi = total
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if errs[w] = part(ctx, lo, hi, &accs[w]); errs[w] != nil {
				cancel()
			}
		}(w)
	}
	wg.Wait()
	var firstErr error
	for _, err := range errs {
		if err != nil && (firstErr == nil || isCtxErr(firstErr) && !isCtxErr(err)) {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	acc := new(big.Int)
	for w := range accs {
		acc.Add(acc, &accs[w])
	}
	return acc, nil
}

// isCtxErr reports whether err is a bare cancellation.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
