package metafinite

import (
	"context"
	"fmt"
	"math/big"
	"sort"

	"qrel/internal/mc"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// Weighted is one outcome of an uncertain function value: the value r
// with probability nu(f(ā) = r).
type Weighted struct {
	Value *big.Rat
	P     *big.Rat
}

// UDB is an unreliable functional database (Definition 6.1): an
// observed functional database together with, for finitely many sites
// f(ā), a finite-support distribution over the value in the actual
// database. Sites without a distribution keep their observed value with
// probability 1. Distinct sites are independent.
type UDB struct {
	// Obs is the observed database.
	Obs *FDB

	dist map[rel.AtomKey][]Weighted
	site map[rel.AtomKey]Site

	dirty     bool
	uncertain []Site // sites with ≥ 2 support points, canonical order
}

// NewUDB wraps an observed functional database. The database is used by
// reference; callers must not mutate it afterwards.
func NewUDB(obs *FDB) *UDB {
	return &UDB{Obs: obs, dist: map[rel.AtomKey][]Weighted{}, site: map[rel.AtomKey]Site{}}
}

// SetDist assigns the distribution of the site. Probabilities must be
// nonnegative and sum to exactly 1 (the paper's consistency condition);
// zero-probability outcomes are dropped; duplicate values are rejected.
func (u *UDB) SetDist(s Site, choices []Weighted) error {
	f, ok := u.Obs.Funcs[s.Fn]
	if !ok {
		return fmt.Errorf("metafinite: unknown function %q", s.Fn)
	}
	if len(s.Args) != f.Arity {
		return fmt.Errorf("metafinite: site %v has wrong arity for %s/%d", s, s.Fn, f.Arity)
	}
	for _, a := range s.Args {
		if a < 0 || a >= u.Obs.N {
			return fmt.Errorf("metafinite: site %v outside universe [0,%d)", s, u.Obs.N)
		}
	}
	total := new(big.Rat)
	kept := make([]Weighted, 0, len(choices))
	seen := map[string]struct{}{}
	for _, c := range choices {
		if c.P == nil || c.Value == nil {
			return fmt.Errorf("metafinite: site %v has nil outcome", s)
		}
		if c.P.Sign() < 0 {
			return fmt.Errorf("metafinite: site %v has negative probability %v", s, c.P)
		}
		total.Add(total, c.P)
		if c.P.Sign() == 0 {
			continue
		}
		key := c.Value.RatString()
		if _, dup := seen[key]; dup {
			return fmt.Errorf("metafinite: site %v lists value %v twice", s, c.Value)
		}
		seen[key] = struct{}{}
		kept = append(kept, Weighted{Value: new(big.Rat).Set(c.Value), P: new(big.Rat).Set(c.P)})
	}
	if total.Cmp(big.NewRat(1, 1)) != 0 {
		return fmt.Errorf("metafinite: site %v probabilities sum to %v, want 1", s, total)
	}
	k := s.Key()
	u.dist[k] = kept
	u.site[k] = Site{Fn: s.Fn, Args: s.Args.Clone()}
	u.dirty = true
	return nil
}

// MustSetDist is SetDist that panics on error.
func (u *UDB) MustSetDist(s Site, choices []Weighted) {
	if err := u.SetDist(s, choices); err != nil {
		panic(err)
	}
}

// Dist returns the distribution of a site (observed value with
// probability 1 when unset).
func (u *UDB) Dist(s Site) []Weighted {
	if d, ok := u.dist[s.Key()]; ok {
		out := make([]Weighted, len(d))
		for i, c := range d {
			out[i] = Weighted{Value: new(big.Rat).Set(c.Value), P: new(big.Rat).Set(c.P)}
		}
		return out
	}
	return []Weighted{{Value: u.Obs.Funcs[s.Fn].Get(s.Args), P: big.NewRat(1, 1)}}
}

func (u *UDB) refresh() {
	if !u.dirty {
		return
	}
	u.uncertain = u.uncertain[:0]
	keys := make([]rel.AtomKey, 0, len(u.dist))
	for k, d := range u.dist {
		if len(d) >= 2 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Rel != keys[j].Rel {
			return keys[i].Rel < keys[j].Rel
		}
		return keys[i].Tup < keys[j].Tup
	})
	for _, k := range keys {
		u.uncertain = append(u.uncertain, u.site[k])
	}
	u.dirty = false
}

// UncertainSites returns the sites with at least two possible values,
// in canonical order.
func (u *UDB) UncertainSites() []Site {
	u.refresh()
	return append([]Site(nil), u.uncertain...)
}

// WorldCount returns the number of possible worlds with positive
// probability: the product of the support sizes.
func (u *UDB) WorldCount() *big.Int {
	u.refresh()
	c := big.NewInt(1)
	for _, s := range u.uncertain {
		c.Mul(c, big.NewInt(int64(len(u.dist[s.Key()]))))
	}
	return c
}

// baseWorld applies all deterministic overrides (single-support
// distributions) to a clone of the observed database.
func (u *UDB) baseWorld() *FDB {
	b := u.Obs.Clone()
	for k, d := range u.dist {
		if len(d) == 1 {
			s := u.site[k]
			b.Funcs[s.Fn].Set(s.Args, d[0].Value)
		}
	}
	return b
}

// MaxEnumWorlds caps exact world enumeration.
const MaxEnumWorlds = 1 << 22

// ForEachWorld enumerates the possible worlds with their probabilities,
// polling ctx before each. The database passed to fn is one scratch
// world rewritten in place between calls: fn must neither retain nor
// mutate it. budget caps the number of worlds; fn returning false stops
// early.
func (u *UDB) ForEachWorld(ctx context.Context, budget int, fn func(b *FDB, p *big.Rat) bool) error {
	u.refresh()
	if budget > MaxEnumWorlds || budget <= 0 {
		budget = MaxEnumWorlds
	}
	if count := u.WorldCount(); count.Cmp(big.NewInt(int64(budget))) > 0 {
		return fmt.Errorf("%w: metafinite: %v worlds, budget %d", unreliable.ErrEnumBudget, count, budget)
	}
	b := u.baseWorld()
	return u.walkSupports(ctx, u.uncertain, b, func(p *big.Rat) bool { return fn(b, p) })
}

// walkSupports enumerates the joint support of sites — a mixed-radix
// counter over their distributions, the first site's digit running
// fastest — writing each combination's values into b and calling fn
// with the combination's probability until fn returns false. ctx is
// polled before each combination, and the sites' values in b are
// restored on return.
func (u *UDB) walkSupports(ctx context.Context, sites []Site, b *FDB, fn func(p *big.Rat) bool) error {
	dists := make([][]Weighted, len(sites))
	saved := make([]*big.Rat, len(sites))
	for i, s := range sites {
		dists[i] = u.dist[s.Key()]
		saved[i] = b.Funcs[s.Fn].Get(s.Args)
	}
	defer func() {
		for i, s := range sites {
			b.Funcs[s.Fn].Set(s.Args, saved[i])
		}
	}()
	digits := make([]int, len(sites))
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		p := big.NewRat(1, 1)
		for i, s := range sites {
			c := dists[i][digits[i]]
			b.Funcs[s.Fn].Set(s.Args, c.Value)
			p.Mul(p, c.P)
		}
		if !fn(p) {
			return nil
		}
		i := 0
		for ; i < len(digits); i++ {
			if digits[i]++; digits[i] < len(dists[i]) {
				break
			}
			digits[i] = 0
		}
		if i == len(digits) {
			return nil
		}
	}
}

// siteKernel is the Monte Carlo kernel over u's worlds. Each lane
// clones the base world once; each sample draws every uncertain site,
// in canonical order, with one Float64 of the lane's stream against the
// site's cumulative float64 thresholds (the first outcome whose
// threshold exceeds the draw, else the last), writes the drawn value in
// place, and adds f of the world to the lane's sum.
func (u *UDB) siteKernel(f func(*FDB) (float64, error)) mc.Kernel {
	u.refresh()
	type site struct {
		fn  string
		key uint64
		d   []Weighted
		cum []float64
	}
	sites := make([]site, len(u.uncertain))
	for i, s := range u.uncertain {
		st := site{fn: s.Fn, key: s.Args.Key(), d: u.dist[s.Key()]}
		acc := 0.0
		for _, c := range st.d {
			pf, _ := c.P.Float64()
			acc += pf
			st.cum = append(st.cum, acc)
		}
		sites[i] = st
	}
	return func(ln *mc.Lane) func(m int) error {
		b := u.baseWorld()
		return func(m int) error {
			for s := 0; s < m; s++ {
				for _, st := range sites {
					r, j := ln.Rng.Float64(), 0
					for j < len(st.cum)-1 && r >= st.cum[j] {
						j++
					}
					// FTable never mutates a stored value in place, so
					// the world may share the distribution's.
					b.Funcs[st.fn].vals[st.key] = st.d[j].Value
				}
				v, err := f(b)
				if err != nil {
					return fmt.Errorf("metafinite: evaluating sample %d: %w", ln.Drawn+s, err)
				}
				ln.Sum += v
			}
			return nil
		}
	}
}

// ValidateWorldProbabilities checks Σ_B nu(B) = 1 by enumeration.
func (u *UDB) ValidateWorldProbabilities(budget int) error {
	total := new(big.Rat)
	err := u.ForEachWorld(context.Background(), budget, func(_ *FDB, p *big.Rat) bool {
		total.Add(total, p)
		return true
	})
	if err != nil {
		return err
	}
	if total.Cmp(big.NewRat(1, 1)) != 0 {
		return fmt.Errorf("metafinite: world probabilities sum to %v, want 1", total)
	}
	return nil
}
