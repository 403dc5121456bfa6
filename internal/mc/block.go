package mc

import (
	"math"

	"qrel/internal/unreliable"
)

// Block draws. Every world-sampling kernel — the mean, padded and
// rare-event estimators, interpreted or compiled — draws its worlds 64
// at a time: a block of up to 64 samples is a set of columns, bit s of
// column i set when uncertain atom i flips in the block's world s, the
// layout compiled programs evaluate and unreliable.WorldBuf.Load
// materializes. The draw is a function of the block alone, so the
// driver starts every block at a multiple of blockSize of the lane's
// samples (see Run).
//
// Within a block each uncertain atom in canonical order, then each
// padding coin, is decided for every live lane at once: lane s compares
// a uniform number U_s against the atom's threshold T = ⌊μ·2⁶⁴⌋ most
// significant bit first. Bit level k costs one generator word, whose
// bit s is bit k of U_s; a lane whose bit differs from T's is decided
// (U_s < T when its bit is 0 where T's is 1) and the others go on. The
// atom is done when every lane is decided or T has no set bit left, so
// a lane flips with probability exactly T/2⁶⁴, within 2⁻⁶⁴ of μ. A lane
// is decided at each level with probability ½: a full block costs about
// log₂64 + 1.3 ≈ 7.3 words per atom, where a scalar draw spends 64.

// blockSize is the number of samples of a full block: one bit of a
// column word per sample.
const blockSize = 64

// below returns the lanes of live whose uniform draw falls below the
// threshold t/2⁶⁴, drawing one word per bit level.
func (h *HotRNG) below(live, t uint64) uint64 {
	var res uint64
	for d := live; d != 0 && t != 0; t <<= 1 {
		r := h.Uint64()
		tm := uint64(int64(t) >> 63) // T's current bit, in every lane
		res |= d &^ r & tm
		d &^= r ^ tm
	}
	return res
}

// belowMixed is below with two thresholds: lanes in a compare against
// ta, the other lanes against tb.
func (h *HotRNG) belowMixed(live, a, ta, tb uint64) uint64 {
	var res uint64
	for d := live; d != 0 && ta|tb != 0; ta, tb = ta<<1, tb<<1 {
		r := h.Uint64()
		tm := uint64(int64(ta)>>63)&a | uint64(int64(tb)>>63)&^a
		res |= d &^ r & tm
		d &^= r ^ tm
	}
	return res
}

// worlds is the law a world-sampling kernel draws its blocks from:
// Omega(D), or with rare set Omega(D) conditioned on at least one
// uncertain atom flipping. Its threshold slices belong to the database
// snapshot and are shared read-only by every lane.
type worlds struct {
	t    []uint64 // unreliable.DB.FlipThresholds
	cond []uint64 // unreliable.DB.CondFlipThresholds, when rare
	rare bool
}

// newWorlds returns the law of db's worlds, conditioned on a flip when
// rare is set; that law needs at least one uncertain atom.
func newWorlds(db *unreliable.DB, rare bool) worlds {
	w := worlds{t: db.FlipThresholds(), rare: rare}
	if rare {
		w.cond = db.CondFlipThresholds()
	}
	return w
}

// coinThreshold is ⌊ξ·2⁶⁴⌋, exact for a float64 ξ in [0, 1): scaling by
// a power of two is exact and the conversion truncates.
func coinThreshold(xi float64) uint64 { return uint64(math.Ldexp(xi, 64)) }

// block draws the next block of m ≤ blockSize samples from the lane's
// stream: the world columns into cols, then per entry of coins one coin
// of threshold coin in every live lane. It returns the live mask. The
// generator state is hoisted for the whole block (HotRNG) and written
// back before returning, so a checkpoint at the block boundary sees the
// advanced generator.
func (w worlds) block(src *Source, cols []uint64, m int, coin uint64, coins []uint64) uint64 {
	live := BatchFull(m)
	h := src.Hot()
	if !w.rare {
		for i, t := range w.t {
			cols[i] = h.below(live, t)
		}
	} else {
		// A lane with no flip yet flips atom j with probability q_j, one
		// that has flipped an atom with μ_j: the law conditioned on a
		// flip, drawn atom by atom. The last atom flips in every lane
		// that has none yet (q = 1).
		var flipped uint64
		for j, q := range w.cond {
			cols[j] = h.belowMixed(live, flipped, w.t[j], q)
			flipped |= cols[j]
		}
		last := len(w.t) - 1
		cols[last] = live&^flipped | h.below(flipped, w.t[last])
	}
	for j := range coins {
		coins[j] = h.below(live, coin)
	}
	src.PutHot(h)
	return live
}
