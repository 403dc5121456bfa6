package metafinite

import (
	"context"
	"fmt"
	"math/big"

	"qrel/internal/mc"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// Result is the outcome of a metafinite reliability computation: the
// expected error H (expected number of tuples where the query value on
// the actual database differs from the observed value) and the
// reliability R = 1 − H/n^k.
type Result struct {
	// H and R are exact; nil for the Monte Carlo engine.
	H, R *big.Rat
	// HFloat and RFloat are always populated.
	HFloat, RFloat float64
	// Arity is the number of free first-order variables.
	Arity int
	// Engine names the engine.
	Engine string
	// Samples counts Monte Carlo samples (0 for exact engines).
	Samples int
}

func exactResult(h *big.Rat, n, k int, engine string) Result {
	norm := big.NewRat(1, 1)
	for i := 0; i < k; i++ {
		norm.Mul(norm, big.NewRat(int64(n), 1))
	}
	r := new(big.Rat).Quo(h, norm)
	r.Sub(big.NewRat(1, 1), r)
	hf, _ := h.Float64()
	rf, _ := r.Float64()
	return Result{H: h, R: r, HFloat: hf, RFloat: rf, Arity: k, Engine: engine}
}

// forEachTuple binds the free variables of t over A^k.
func forEachTuple(db *FDB, t Term, fn func(env Env) error) (int, error) {
	vars := FreeVars(t)
	env := Env{}
	var innerErr error
	rel.ForEachTuple(db.N, len(vars), func(tp rel.Tuple) bool {
		for i, v := range vars {
			env[v] = tp[i]
		}
		if err := fn(env); err != nil {
			innerErr = err
			return false
		}
		return true
	})
	return len(vars), innerErr
}

// MaxSiteCombos caps the per-tuple joint-support enumeration of the
// quantifier-free engine.
const MaxSiteCombos = 1 << 20

// QuantifierFree computes the exact reliability of a quantifier-free
// (aggregate-free) term in polynomial time — Theorem 6.2 (i). For each
// tuple ā, the term touches a constant number of sites f(b̄); the engine
// enumerates the joint support of the uncertain ones, weights each
// combination, and compares the value against the observed value. The
// work per tuple is constant: every tuple rewrites its sites in one
// scratch world, which the walk restores.
func QuantifierFree(ctx context.Context, u *UDB, t Term, budget int) (Result, error) {
	if !IsQuantifierFree(t) {
		return Result{}, fmt.Errorf("metafinite: QuantifierFree engine requires an aggregate-free term")
	}
	if budget <= 0 || budget > MaxSiteCombos {
		budget = MaxSiteCombos
	}
	u.refresh()
	scratch := u.baseWorld()
	h := new(big.Rat)
	k, err := forEachTuple(u.Obs, t, func(env Env) error {
		sites, err := sitesOf(t, u.Obs, env)
		if err != nil {
			return err
		}
		// Keep only uncertain sites; deterministic overrides are already
		// in the scratch world.
		var unc []Site
		combos := 1
		for _, s := range sites {
			if d := u.dist[s.Key()]; len(d) >= 2 {
				unc = append(unc, s)
				combos *= len(d)
				if combos > budget {
					return fmt.Errorf("%w: metafinite: %d site combinations, budget %d", unreliable.ErrEnumBudget, combos, budget)
				}
			}
		}
		// The reliability compares against the query value on the
		// OBSERVED database (Definition 2.2), not on the base world with
		// deterministic overrides applied.
		observed, err := t.Eval(u.Obs, env)
		if err != nil {
			return err
		}
		var evalErr error
		if err := u.walkSupports(ctx, unc, scratch, func(p *big.Rat) bool {
			var v *big.Rat
			if v, evalErr = t.Eval(scratch, env); evalErr == nil && v.Cmp(observed) != 0 {
				h.Add(h, p)
			}
			return evalErr == nil
		}); err != nil {
			return err
		}
		return evalErr
	})
	if err != nil {
		return Result{}, err
	}
	return exactResult(h, u.Obs.N, k, "mf-qfree-exact"), nil
}

// hamming holds a term's observed value on every tuple of A^k, in
// rel.ForEachTuple order, and counts the tuples on which a world's value
// differs: the statistic WorldEnum sums exactly and MonteCarlo samples.
type hamming struct {
	t        Term
	k        int
	observed []*big.Rat
}

func newHamming(obs *FDB, t Term) (*hamming, error) {
	h := &hamming{t: t}
	k, err := forEachTuple(obs, t, func(env Env) error {
		v, err := t.Eval(obs, env)
		h.observed = append(h.observed, v)
		return err
	})
	h.k = k
	return h, err
}

// diff counts the tuples whose value on b differs from the observed one.
func (h *hamming) diff(b *FDB) (int, error) {
	d, i := 0, 0
	_, err := forEachTuple(b, h.t, func(env Env) error {
		v, err := h.t.Eval(b, env)
		if err != nil {
			return err
		}
		if v.Cmp(h.observed[i]) != 0 {
			d++
		}
		i++
		return nil
	})
	return d, err
}

// WorldEnum computes the exact reliability of an arbitrary term —
// aggregates included — by enumerating the possible worlds (Theorem
// 6.2 (ii): first-order metafinite reliability is in FP^#P; this is the
// deterministic simulation of the oracle).
func WorldEnum(ctx context.Context, u *UDB, t Term, budget int) (Result, error) {
	ham, err := newHamming(u.Obs, t)
	if err != nil {
		return Result{}, err
	}
	h := new(big.Rat)
	var evalErr error
	err = u.ForEachWorld(ctx, budget, func(b *FDB, p *big.Rat) bool {
		var d int
		if d, evalErr = ham.diff(b); d > 0 {
			h.Add(h, new(big.Rat).Mul(p, big.NewRat(int64(d), 1)))
		}
		return evalErr == nil
	})
	if err != nil {
		return Result{}, err
	}
	if evalErr != nil {
		return Result{}, evalErr
	}
	return exactResult(h, u.Obs.N, ham.k, "mf-world-enum"), nil
}

// MonteCarlo estimates the reliability of an arbitrary term with
// absolute error eps and confidence 1−delta by sampling worlds and
// averaging the normalized Hamming distance — the metafinite analogue
// of Theorem 5.12 (the queries are polynomial-time evaluable because
// the interpreted operations are). The worlds are drawn by siteKernel
// and averaged by mc.EstimateMean on the seed's lane split, so the
// estimate is a function of (u, t, eps, delta, seed). A run that ctx
// cuts short is an error: Result has no field for a widened ε.
func MonteCarlo(ctx context.Context, u *UDB, t Term, eps, delta float64, seed int64) (Result, error) {
	ham, err := newHamming(u.Obs, t)
	if err != nil {
		return Result{}, err
	}
	norm := 1.0
	for i := 0; i < ham.k; i++ {
		norm *= float64(u.Obs.N)
	}
	k := u.siteKernel(func(b *FDB) (float64, error) {
		d, err := ham.diff(b)
		return float64(d) / norm, err
	})
	est, _, err := mc.EstimateMean(ctx, func(bool) mc.Kernel { return k }, eps, delta, 0, mc.Stream{Seed: seed})
	if cerr := ctx.Err(); cerr != nil {
		return Result{}, fmt.Errorf("metafinite: estimate cut short: %w", cerr)
	}
	if err != nil {
		return Result{}, err
	}
	return Result{
		HFloat:  est.Value * norm,
		RFloat:  1 - est.Value,
		Arity:   ham.k,
		Engine:  "mf-monte-carlo",
		Samples: est.Samples,
	}, nil
}
