package karpluby

import (
	"math/big"
	"math/bits"

	"qrel/internal/mc"
	"qrel/internal/vm"
)

// Batched Karp–Luby kernels: the same coverage iteration as the scalar
// kernels of karpluby.go with the per-iteration assignment
// materialization and first-satisfied term scan replaced by
// bit-parallel evaluation over batches of up to 64 iterations
// (vm.FirstSatisfiedHits). The RNG draw sequence is preserved per
// iteration — term pick, then the full variable assignment, in the
// scalar order — so a batched run is byte-identical (estimate,
// snapshots, lane aggregates) to the scalar run over the same stream.

// pick64 holds the precomputed uint64 fast path of the weighted term
// pick: the cumulative weights and the byte-rejection parameters of
// randBigBelowScratch, replicated draw-for-draw.
type pick64 struct {
	cum   []uint64
	total uint64
	nb    int
	mask  byte
	// lut radix-indexes the cumulative sums by the top eight bits of a
	// drawn value: lut[j] is the first term whose cumulative weight
	// exceeds the bucket start j<<shift. The search then only scans
	// forward within one bucket, replacing a binary search whose
	// comparisons are coin-flips the branch predictor cannot learn.
	lut   [256]int32
	shift uint
}

// newPick64 requires total.BitLen() ≤ 63.
func newPick64(cum []*big.Int, total *big.Int) *pick64 {
	nbits := total.BitLen()
	p := &pick64{
		cum:   make([]uint64, len(cum)),
		total: total.Uint64(),
		nb:    (nbits + 7) / 8,
		mask:  byte(0xff >> uint(((nbits+7)/8)*8-nbits)),
	}
	for i, c := range cum {
		p.cum[i] = c.Uint64()
	}
	if nbits > 8 {
		p.shift = uint(nbits - 8)
	}
	i := int32(0)
	last := int32(len(p.cum) - 1)
	for j := range p.lut {
		start := uint64(j) << p.shift
		for i < last && p.cum[i] <= start {
			i++
		}
		p.lut[j] = i
	}
	return p
}

// drawHot replicates pickCumulativeScratch over a hoisted generator:
// the same big-endian byte draws (most significant byte masked), the
// same rejection loop, the same index. It takes and returns the HotRNG
// by value so the caller's copy never has its address taken — that
// keeps the state words eligible for registers across the rest of the
// batch loop.
func (p *pick64) drawHot(h mc.HotRNG) (int, mc.HotRNG) {
	var v uint64
	for {
		v = uint64(h.Byte()) & uint64(p.mask)
		for k := 1; k < p.nb; k++ {
			v = v<<8 | uint64(h.Byte())
		}
		if v < p.total {
			break
		}
	}
	return p.search(v), h
}

// search returns the first term whose cumulative weight exceeds v —
// the same index the interpreted path's binary search produces, found
// by a radix-bucket jump plus a short forward scan. The scan cannot run
// off the end: v < total = cum[len-1], so the last entry always stops it.
func (p *pick64) search(v uint64) int {
	i := int(p.lut[(v>>p.shift)&0xff])
	for p.cum[i] <= v {
		i++
	}
	return i
}

// CountBatched is the bit-parallel kernel of CountDNF. The term pick
// runs on machine words, so a term-weight total past 63 bits — a
// property of the input, visible here — gets CountScalar's big-integer
// pick instead.
func CountBatched(tb *countTable) mc.Kernel {
	if tb.total.BitLen() > 63 {
		return CountScalar(tb)
	}
	norm := tb.norm
	pk := newPick64(tb.cum, tb.total)
	// Flattened literal-forcing tables for the hot loop: term i forces
	// literals litVar[litStart[i]:litStart[i+1]], with litNeg all-ones
	// for a negated literal. One flat walk replaces the per-sample
	// slice-of-slices traversal and its data-dependent branch on Neg.
	litStart := make([]int32, len(norm)+1)
	var litVar []int32
	var litNeg []uint64
	for i, tm := range norm {
		litStart[i] = int32(len(litVar))
		for _, l := range tm {
			litVar = append(litVar, int32(l.Var))
			neg := uint64(0)
			if l.Neg {
				neg = ^uint64(0)
			}
			litNeg = append(litNeg, neg)
		}
	}
	litStart[len(norm)] = int32(len(litVar))
	return func(ln *mc.Lane) func(m int) error {
		cols := make([]uint64, tb.numVars)
		picked := make([]uint64, len(norm))
		// Every Intn2/Byte inlines the xoshiro step over locals instead of
		// calling into the Source. State is written back before the step
		// returns, so checkpoint snapshots at batch boundaries see the
		// advanced generator.
		return func(m int) error {
			clear(cols)
			clear(picked)
			hot := ln.Src.Hot()
			bit := uint64(1)
			nv := len(cols)
			for s := 0; s < m; s++ {
				var i int
				i, hot = pk.drawHot(hot)
				// Branchless assignment fill: draw==0 sets the bit. A
				// conditional here is a coin-flip branch the predictor can
				// never learn; the mispredict penalty dominated the draw
				// itself. Unrolled two wide to thin the loop-control
				// overhead around the serial generator chain.
				v := 0
				for ; v+1 < nv; v += 2 {
					cols[v] |= bit & (uint64(hot.Intn2()) - 1)
					cols[v+1] |= bit & (uint64(hot.Intn2()) - 1)
				}
				if v < nv {
					cols[v] |= bit & (uint64(hot.Intn2()) - 1)
				}
				for k := litStart[i]; k < litStart[i+1]; k++ {
					cols[litVar[k]] = (cols[litVar[k]] | bit) &^ (bit & litNeg[k])
				}
				picked[i] |= bit
				bit <<= 1
			}
			ln.Src.PutHot(hot)
			ln.Hits += bits.OnesCount64(vm.FirstSatisfiedHits(norm, cols, picked, mc.BatchFull(m)))
			return nil
		}
	}
}

// ProbBatched is the bit-parallel kernel of ProbDNF, with the same
// hoisted-generator structure as CountBatched.
func ProbBatched(tb *probTable) mc.Kernel {
	norm := tb.norm
	return func(ln *mc.Lane) func(m int) error {
		cols := make([]uint64, len(tb.pf))
		picked := make([]uint64, len(norm))
		return func(m int) error {
			clear(cols)
			clear(picked)
			hot := ln.Src.Hot()
			for s := 0; s < m; s++ {
				bit := uint64(1) << uint(s)
				i := tb.pick(hot.Float64())
				for v := range cols {
					if hot.Float64() < tb.pf[v] {
						cols[v] |= bit
					}
				}
				for _, l := range norm[i] {
					if l.Neg {
						cols[l.Var] &^= bit
					} else {
						cols[l.Var] |= bit
					}
				}
				picked[i] |= bit
			}
			ln.Src.PutHot(hot)
			ln.Hits += bits.OnesCount64(vm.FirstSatisfiedHits(norm, cols, picked, mc.BatchFull(m)))
			return nil
		}
	}
}
