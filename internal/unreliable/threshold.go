package unreliable

import "math/big"

// Fixed-point flip thresholds for the block samplers (internal/mc):
// a sampler that decides 64 worlds at a time compares 64-bit uniform
// words against ⌊p·2⁶⁴⌋ most significant bit first, so each flip
// probability is needed as that one integer, computed exactly from the
// rational once per snapshot of the database.

// fixed64 returns ⌊num/den · 2⁶⁴⌋ for 0 ≤ num < den.
func fixed64(num, den *big.Int) uint64 {
	q := new(big.Int).Lsh(num, 64)
	return q.Quo(q, den).Uint64()
}

// FlipThresholds returns ⌊mu_i·2⁶⁴⌋ for the uncertain atoms in the
// canonical order of UncertainAtoms: a lane whose uniform 64-bit word
// falls below entry i flips atom i, with probability within 2⁻⁶⁴ of
// mu_i. It is computed on first use and belongs to the database
// snapshot: it must not be modified.
func (d *DB) FlipThresholds() []uint64 {
	l := d.atoms()
	l.flipOnce.Do(func() {
		l.flip = make([]uint64, len(l.uncertain))
		for i, e := range l.uncertain {
			l.flip[i] = fixed64(e.mu.Num(), e.mu.Denom())
		}
	})
	return l.flip
}

// CondFlipThresholds returns the thresholds of the worlds conditioned on
// at least one uncertain atom flipping, drawn atom by atom in canonical
// order: entry j is ⌊q_j·2⁶⁴⌋ with
//
//	q_j = mu_j / (1 − Π_{k≥j} (1 − mu_k)),
//
// the probability that atom j flips given that no earlier atom did and
// that one of atoms j, j+1, … does. An atom after the first flip flips
// with its own mu_j. The last atom's q is 1 — it must flip when no
// earlier one did — so the slice has one entry fewer than there are
// uncertain atoms. It is computed on first use, in integers, and belongs
// to the database snapshot: it must not be modified.
func (d *DB) CondFlipThresholds() []uint64 {
	l := d.atoms()
	l.condOnce.Do(func() {
		u := len(l.uncertain)
		if u == 0 {
			return
		}
		w := newWeights(l.uncertain)
		// keep, den = Π_{k>j} Keep_k, Π_{k>j} Den_k, so that
		// q_j = Flip_j·den / (Den_j·den − Keep_j·keep).
		keep, den := big.NewInt(1), big.NewInt(1)
		num, z, t := new(big.Int), new(big.Int), new(big.Int)
		l.cond = make([]uint64, u-1)
		for j := u - 1; j >= 0; j-- {
			if j < u-1 {
				num.Mul(w.Flip[j], den)
				z.Mul(w.Den[j], den)
				z.Sub(z, t.Mul(w.Keep[j], keep))
				l.cond[j] = fixed64(num, z)
			}
			keep.Mul(keep, w.Keep[j])
			den.Mul(den, w.Den[j])
		}
	})
	return l.cond
}
