package unreliable

import (
	"math/bits"
	"slices"

	"qrel/internal/rel"
)

// Flips is one relation's flip index in a snapshot of a DB: which of
// the relation's tuples are uncertain atoms, at which position of the
// canonical order, and which flip in every world (mu = 1).
//
// The canonical order lists a relation's uncertain atoms contiguously
// and in Tuple.Key order, which is rank order (rel.FoldRank), so an
// atom's position is the relation's offset plus its rank among the
// relation's uncertain tuples. When the relation's tuple space A^arity
// takes at most max(denseMinWords, u_R) 64-bit words for its u_R
// uncertain atoms — the rule by which rel lays a relation out densely,
// so memory follows the atoms and never the tuple space alone — the
// index is a bitset over A^arity, tuple ā at bit rank(ā), with the
// number of set bits before each word: 12 bytes per word, so at most
// 96 bytes or 12 per atom. Otherwise it is the ascending tuple keys of
// the uncertain atoms (8 bytes per atom), searched by halving. The
// mu = 1 atoms are an ascending list of positions (ranks when dense,
// keys otherwise), usually empty.
//
// A Flips is immutable and safe for concurrent reads.
type Flips struct {
	n, arity int
	off      int // position of the relation's first uncertain atom
	dense    bool
	words    []uint64 // dense: bit rank(ā) set when ā is uncertain
	before   []int32  // dense: set bits in words[:w]
	keys     []uint64 // sparse: the uncertain tuples' keys, ascending
	sure     []uint64 // the mu = 1 tuples' positions, ascending
}

// denseMinWords is the bitset size, in words, a relation's index may
// take whatever its number of uncertain atoms: rel's smallDenseWords.
const denseMinWords = 8

// noFlips is the index of a relation without uncertain or mu = 1
// atoms: every lookup answers certain.
var noFlips = &Flips{}

// buildFlips indexes the snapshot's atoms by relation over a universe
// of n elements.
func buildFlips(n int, uncertain, sure []entry) map[string]*Flips {
	m := make(map[string]*Flips)
	for lo := 0; lo < len(uncertain); {
		name := uncertain[lo].atom.Rel
		hi := lo + 1
		for hi < len(uncertain) && uncertain[hi].atom.Rel == name {
			hi++
		}
		x := &Flips{n: n, arity: len(uncertain[lo].atom.Args), off: lo}
		size := rel.TupleCount(n, x.arity)
		x.dense = size >= 0 && (size+63)/64 <= max(denseMinWords, hi-lo)
		if x.dense {
			x.words = make([]uint64, (size+63)/64)
			for _, e := range uncertain[lo:hi] {
				p, _ := x.pos(e.atom.Args)
				x.words[p>>6] |= 1 << (p & 63)
			}
			x.before = make([]int32, len(x.words))
			c := 0
			for w, word := range x.words {
				x.before[w] = int32(c)
				c += bits.OnesCount64(word)
			}
		} else {
			x.keys = make([]uint64, hi-lo)
			for j, e := range uncertain[lo:hi] {
				x.keys[j], _ = x.pos(e.atom.Args)
			}
		}
		m[name] = x
		lo = hi
	}
	for _, e := range sure {
		x := m[e.atom.Rel]
		if x == nil {
			x = &Flips{n: n, arity: len(e.atom.Args)}
			m[e.atom.Rel] = x
		}
		p, _ := x.pos(e.atom.Args)
		x.sure = append(x.sure, p) // canonical order: ascending
	}
	return m
}

// pos is t's position in the index — its rank when dense, its key
// otherwise — or false when t is not a tuple of the relation's A^arity.
func (x *Flips) pos(t rel.Tuple) (uint64, bool) {
	if len(t) != x.arity {
		return 0, false
	}
	var p uint64
	for _, e := range t {
		if e < 0 || e >= x.n {
			return 0, false
		}
		if x.dense {
			p = uint64(rel.FoldRank(int(p), x.n, e))
		} else {
			p = p<<16 | uint64(e)
		}
	}
	return p, true
}

// at classifies the tuple at position p as FlipIndex does.
func (x *Flips) at(p uint64) (i int, sure bool) {
	if x.dense {
		if w := p >> 6; w < uint64(len(x.words)) {
			if bit := uint64(1) << (p & 63); x.words[w]&bit != 0 {
				return x.off + int(x.before[w]) + bits.OnesCount64(x.words[w]&(bit-1)), false
			}
		}
	} else if j, ok := slices.BinarySearch(x.keys, p); ok {
		return x.off + j, false
	}
	if len(x.sure) > 0 {
		if _, ok := slices.BinarySearch(x.sure, p); ok {
			return -1, true
		}
	}
	return -1, false
}

// Dense reports whether the index is a bitset, so that IndexRank
// answers for it.
func (x *Flips) Dense() bool { return x.dense }

// Index classifies the relation's tuple t as FlipIndex classifies its
// atom.
func (x *Flips) Index(t rel.Tuple) (i int, sure bool) {
	p, ok := x.pos(t)
	if !ok {
		return -1, false
	}
	return x.at(p)
}

// IndexRank is Index for the tuple of rank r (rel.FoldRank over the
// universe) in a dense index: a bit test and a population count.
func (x *Flips) IndexRank(r int) (i int, sure bool) { return x.at(uint64(r)) }
