package unreliable

import (
	"math/big"
	"math/bits"
)

// Weights is nu in integers, one entry per uncertain atom in canonical
// order: atom i keeps its observed value with probability
// Keep[i]/Den[i] = 1 − mu_i and flips with probability Flip[i]/Den[i] =
// mu_i. The world with flip mask m therefore has
//
//	nu(B_m) = Π_i (Flip[i] if bit i of m, else Keep[i]) / Π_i Den[i],
//
// a numerator over Theorem 4.2's normaliser g = G(). Sums of world
// probabilities can be formed entirely in integers and divided by g
// once; the quotient is the same reduced rational the per-world
// big.Rat products give. The slices are shared and read-only.
type Weights struct {
	Keep, Flip, Den []*big.Int
}

// newWeightTable returns weights for n atoms whose entries are still
// to be set, the three columns cut from one slice.
func newWeightTable(n int) Weights {
	col := make([]*big.Int, 3*n)
	return Weights{Keep: col[:n:n], Flip: col[n : 2*n : 2*n], Den: col[2*n:]}
}

// newWeights builds the weights of the uncertain atoms. Flip and Den are
// mu's own numerator and denominator, which nothing mutates; Keep comes
// from one slab.
func newWeights(uncertain []entry) Weights {
	w := newWeightTable(len(uncertain))
	words := 0 // Keep_i ≤ Den_i
	for _, e := range uncertain {
		words += len(e.mu.Denom().Bits())
	}
	s := newIntSlab(len(uncertain), words)
	var keep big.Int
	for i, e := range uncertain {
		w.Flip[i], w.Den[i] = e.mu.Num(), e.mu.Denom()
		w.Keep[i] = s.take(keep.Sub(w.Den[i], w.Flip[i]))
	}
	return w
}

// intSlab hands out read-only copies of non-negative big.Ints: their
// structs come from one slice and their words from one arena, so a
// snapshot's tables cost two allocations however many atoms they
// cover. Each copy's words are capped at their length, so that a
// mistaken write reallocates instead of running into a neighbour's.
type intSlab struct {
	ints  []big.Int
	words []big.Word
}

// newIntSlab returns a slab for n Ints of words words in all; more
// words than that still work, from a second arena.
func newIntSlab(n, words int) *intSlab {
	return &intSlab{ints: make([]big.Int, n), words: make([]big.Word, 0, words)}
}

// take returns the slab's next Int, set to x.
func (s *intSlab) take(x *big.Int) *big.Int {
	z := &s.ints[0]
	s.ints = s.ints[1:]
	lo := len(s.words)
	s.words = append(s.words, x.Bits()...)
	return z.SetBits(s.words[lo:len(s.words):len(s.words)])
}

// Weights returns the integer form of nu over the uncertain atoms.
func (d *DB) Weights() Weights { return d.atoms().tables().weights }

// WeightsOverLCM returns Weights rescaled so that every atom's
// numerators are over one denominator L, the least common multiple of
// the reduced denominators, and L itself: Keep[i]/L = 1 − mu_i and
// Flip[i]/L = mu_i. A sum over atom sets of different sizes then needs
// only powers of L — the quantifier-free engine's per-tuple sums. The
// rescaling is computed on first use and kept with the database.
func (d *DB) WeightsOverLCM() (Weights, *big.Int) {
	l := d.atoms().tables()
	l.lcmOnce.Do(func() {
		lcm := big.NewInt(1)
		var q, t big.Int
		for _, den := range l.weights.Den {
			// QuoRem, unlike Rem, reuses its quotient's words.
			if q.QuoRem(lcm, den, &t); t.Sign() != 0 {
				lcm.Mul(lcm, t.Quo(den, t.GCD(nil, nil, lcm, den)))
			}
		}
		n := l.weights.Len()
		l.lcm = lcm
		l.overLCM = newWeightTable(n)
		// Keep_i and Flip_i over L are at most L.
		s := newIntSlab(2*n, 2*n*len(lcm.Bits()))
		var x big.Int
		for i, den := range l.weights.Den {
			t.Quo(lcm, den)
			l.overLCM.Keep[i] = s.take(x.Mul(l.weights.Keep[i], &t))
			l.overLCM.Flip[i] = s.take(x.Mul(l.weights.Flip[i], &t))
			l.overLCM.Den[i] = lcm
		}
	})
	return l.overLCM, l.lcm
}

// Len returns the number of atoms.
func (w Weights) Len() int { return len(w.Den) }

// Slice returns the weights of atoms lo..hi-1.
func (w Weights) Slice(lo, hi int) Weights {
	return Weights{Keep: w.Keep[lo:hi], Flip: w.Flip[lo:hi], Den: w.Den[lo:hi]}
}

// G returns the product of the denominators: the common denominator of
// every numerator a Walk over w produces.
func (w Weights) G() *big.Int {
	g := big.NewInt(1)
	for _, den := range w.Den {
		g.Mul(g, den)
	}
	return g
}

// Walk is a cursor over the numerators Π_i (Flip[i] or Keep[i]) of
// consecutive flip masks. It keeps the suffix products of the current
// mask, so stepping to the next mask redoes only the factors below the
// carry: two multiplications per step on average, none of them a
// rational normalisation.
type Walk struct {
	w    Weights
	mask uint64
	// suffix[j] = Π_{i ≥ j} factor_i(mask); suffix[len] = 1.
	suffix []*big.Int
}

// Walk returns a cursor positioned at mask. It must not be shared
// between goroutines.
func (w Weights) Walk(mask uint64) *Walk {
	k := &Walk{w: w, mask: mask, suffix: make([]*big.Int, w.Len()+1)}
	for j := range k.suffix {
		k.suffix[j] = new(big.Int)
	}
	k.suffix[w.Len()].SetInt64(1)
	k.redo(w.Len() - 1)
	return k
}

// redo recomputes suffix[top], ..., suffix[0] from suffix[top+1].
func (k *Walk) redo(top int) {
	for j := top; j >= 0; j-- {
		f := k.w.Keep[j]
		if k.mask>>uint(j)&1 == 1 {
			f = k.w.Flip[j]
		}
		k.suffix[j].Mul(k.suffix[j+1], f)
	}
}

// Weight returns the numerator of the current mask. The value is owned
// by the cursor and changes on Next.
func (k *Walk) Weight() *big.Int { return k.suffix[0] }

// Next advances to mask+1. Stepping past the last mask (all atoms
// flipped) leaves the cursor unchanged.
func (k *Walk) Next() {
	carry := bits.TrailingZeros64(k.mask + 1) // bits 0..carry change
	if carry >= k.w.Len() {
		return
	}
	k.mask++
	k.redo(carry)
}
