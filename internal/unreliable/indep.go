package unreliable

import (
	"fmt"
	"math/big"

	"qrel/internal/rel"
)

// fromProbabilities builds an unreliable database from the alternative
// presentation discussed in the Remark of Section 2: instead of an
// observed database and error probabilities, each ground atom directly
// carries the probability nu(Rā) that it holds in the actual database.
//
// The construction picks as observed database the modal world — atom
// present iff nu ≥ 1/2 — and sets mu = 1 − nu for present atoms and
// mu = nu for absent ones, which induces exactly the given distribution.
// Atoms not listed are taken as certainly absent (nu = 0).
func fromProbabilities(n int, voc *rel.Vocabulary, nu map[rel.AtomKey]*big.Rat) (*DB, error) {
	a, err := rel.NewStructure(n, voc)
	if err != nil {
		return nil, err
	}
	d := New(a)
	for k, p := range nu {
		if p == nil || p.Cmp(ratZero) < 0 || p.Cmp(ratOne) > 0 {
			return nil, fmt.Errorf("unreliable: nu(%v) = %v outside [0,1]", k.Atom(), p)
		}
		atom := k.Atom()
		var mu *big.Rat
		if p.Cmp(ratHalf) >= 0 {
			if err := a.Add(atom.Rel, atom.Args); err != nil {
				return nil, err
			}
			mu = new(big.Rat).Sub(ratOne, p)
		} else {
			mu = new(big.Rat).Set(p)
		}
		if err := d.SetError(atom, mu); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Probabilities returns the tuple-independent view of the database: the
// map of nu(Rā) for every atom with nu ∉ {0} — i.e. all observed facts
// and all uncertain atoms. Certainly-absent atoms are omitted.
func (d *DB) Probabilities() map[rel.AtomKey]*big.Rat {
	out := map[rel.AtomKey]*big.Rat{}
	d.A.ForEachGroundAtom(func(a rel.GroundAtom) bool {
		nu := d.NuAtom(a)
		if nu.Sign() != 0 {
			out[a.Key()] = nu
		}
		return true
	})
	return out
}
