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

func newWeights(uncertain []entry) Weights {
	w := Weights{
		Keep: make([]*big.Int, len(uncertain)),
		Flip: make([]*big.Int, len(uncertain)),
		Den:  make([]*big.Int, len(uncertain)),
	}
	for i, e := range uncertain {
		w.Flip[i] = new(big.Int).Set(e.mu.Num())
		w.Den[i] = new(big.Int).Set(e.mu.Denom())
		w.Keep[i] = new(big.Int).Sub(w.Den[i], w.Flip[i])
	}
	return w
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
		var t big.Int
		for _, den := range l.weights.Den {
			if t.Rem(lcm, den).Sign() != 0 {
				lcm.Mul(lcm, t.Quo(den, t.GCD(nil, nil, lcm, den)))
			}
		}
		n := l.weights.Len()
		l.lcm = lcm
		l.overLCM = Weights{Keep: make([]*big.Int, n), Flip: make([]*big.Int, n), Den: make([]*big.Int, n)}
		for i, den := range l.weights.Den {
			t.Quo(lcm, den)
			l.overLCM.Keep[i] = new(big.Int).Mul(l.weights.Keep[i], &t)
			l.overLCM.Flip[i] = new(big.Int).Mul(l.weights.Flip[i], &t)
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
