package unreliable

import (
	"fmt"
	"math/big"

	"qrel/internal/rel"
)

// Condition returns the database obtained by conditioning the world
// distribution on the event "atom holds in the actual database is
// `value`". Because the per-atom error events are independent, the
// posterior simply fixes this atom (its error probability becomes 0 or
// 1 depending on whether the observed value matches) and leaves every
// other atom untouched. Conditioning on a probability-zero event is an
// error.
//
// Conditioning supports sensitivity analysis: comparing R_ψ(D | Rā)
// against R_ψ(D | ¬Rā) measures how much one fact's truth drives the
// query's risk.
func (d *DB) Condition(atom rel.GroundAtom, value bool) (*DB, error) {
	nu := d.NuAtom(atom)
	if value && nu.Sign() == 0 {
		return nil, fmt.Errorf("unreliable: conditioning on %v = true, which has probability 0", atom)
	}
	if !value && isOne(nu) {
		return nil, fmt.Errorf("unreliable: conditioning on %v = false, which has probability 0", atom)
	}
	c := d.Clone()
	mu := ratOne // certainly wrong
	if d.A.Holds(atom.Rel, atom.Args) == value {
		mu = ratZero // certainly right
	}
	if err := c.SetError(atom, mu); err != nil {
		return nil, err
	}
	return c, nil
}

// MostLikelyWorld returns a world of maximal probability together with
// that probability: each uncertain atom independently keeps its
// observed value when mu ≤ 1/2 and flips otherwise (ties broken toward
// keeping). Deterministic flips (mu = 1) are applied.
func (d *DB) MostLikelyWorld() (*rel.Structure, *big.Rat) {
	l := d.atoms()
	b := l.sureWorld(d.A)
	p := new(big.Rat).Set(ratOne)
	for _, e := range l.uncertain {
		keep := new(big.Rat).Sub(ratOne, e.mu)
		// mu and 1 − mu share their reduced denominator, so mu > 1/2
		// exactly when its numerator exceeds keep's.
		if e.mu.Num().Cmp(keep.Num()) > 0 {
			b.Rel(e.atom.Rel).Toggle(e.atom.Args)
			p.Mul(p, e.mu)
		} else {
			p.Mul(p, keep)
		}
	}
	return b, p
}

// AtomInfluence returns, for the given atom, the pair of conditioned
// databases (atom true, atom false) when both events have positive
// probability; a nil entry marks an impossible branch.
func (d *DB) AtomInfluence(atom rel.GroundAtom) (whenTrue, whenFalse *DB) {
	if t, err := d.Condition(atom, true); err == nil {
		whenTrue = t
	}
	if f, err := d.Condition(atom, false); err == nil {
		whenFalse = f
	}
	return whenTrue, whenFalse
}
