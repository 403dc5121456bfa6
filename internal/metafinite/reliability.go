package metafinite

import (
	"fmt"
	"math/big"
	"math/rand"

	"qrel/internal/mc"
	"qrel/internal/rel"
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
// combination, and compares the value against the observed value.
func QuantifierFree(u *UDB, t Term, budget int) (Result, error) {
	if !IsQuantifierFree(t) {
		return Result{}, fmt.Errorf("metafinite: QuantifierFree engine requires an aggregate-free term")
	}
	if budget <= 0 || budget > MaxSiteCombos {
		budget = MaxSiteCombos
	}
	u.refresh()
	base := u.baseWorld()
	h := new(big.Rat)
	k, err := forEachTuple(u.Obs, t, func(env Env) error {
		sites, err := sitesOf(t, u.Obs, env)
		if err != nil {
			return err
		}
		// Keep only uncertain sites; deterministic overrides are already
		// in base.
		var unc []Site
		combos := 1
		for _, s := range sites {
			d := u.dist[s.Key()]
			if len(d) >= 2 {
				unc = append(unc, s)
				combos *= len(d)
				if combos > budget {
					return fmt.Errorf("metafinite: %d site combinations exceed budget %d", combos, budget)
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
		// Enumerate the joint support with a mixed-radix counter.
		scratch := base.Clone()
		digits := make([]int, len(unc))
		for {
			p := big.NewRat(1, 1)
			for i, s := range unc {
				c := u.dist[s.Key()][digits[i]]
				scratch.Funcs[s.Fn].Set(s.Args, c.Value)
				p.Mul(p, c.P)
			}
			v, err := t.Eval(scratch, env)
			if err != nil {
				return err
			}
			if v.Cmp(observed) != 0 {
				h.Add(h, p)
			}
			i := 0
			for i < len(digits) {
				digits[i]++
				if digits[i] < len(u.dist[unc[i].Key()]) {
					break
				}
				digits[i] = 0
				i++
			}
			if i == len(digits) {
				break
			}
			if len(digits) == 0 {
				break
			}
		}
		// Restore scratch for the next tuple.
		for _, s := range unc {
			scratch.Funcs[s.Fn].Set(s.Args, base.Funcs[s.Fn].Get(s.Args))
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return exactResult(h, u.Obs.N, k, "mf-qfree-exact"), nil
}

// WorldEnum computes the exact reliability of an arbitrary term —
// aggregates included — by enumerating the possible worlds (Theorem
// 6.2 (ii): first-order metafinite reliability is in FP^#P; this is the
// deterministic simulation of the oracle).
func WorldEnum(u *UDB, t Term, budget int) (Result, error) {
	vars := FreeVars(t)
	k := len(vars)
	// Observed values per tuple (on the observed database).
	observed := map[uint64]*big.Rat{}
	_, err := forEachTuple(u.Obs, t, func(env Env) error {
		v, err := t.Eval(u.Obs, env)
		if err != nil {
			return err
		}
		observed[envKey(env, vars)] = v
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	h := new(big.Rat)
	var evalErr error
	err = u.ForEachWorld(budget, func(b *FDB, p *big.Rat) bool {
		diff := 0
		_, err := forEachTuple(b, t, func(env Env) error {
			v, err := t.Eval(b, env)
			if err != nil {
				return err
			}
			if v.Cmp(observed[envKey(env, vars)]) != 0 {
				diff++
			}
			return nil
		})
		if err != nil {
			evalErr = err
			return false
		}
		if diff > 0 {
			h.Add(h, new(big.Rat).Mul(p, big.NewRat(int64(diff), 1)))
		}
		return true
	})
	if err != nil {
		return Result{}, err
	}
	if evalErr != nil {
		return Result{}, evalErr
	}
	return exactResult(h, u.Obs.N, k, "mf-world-enum"), nil
}

func envKey(env Env, vars []string) uint64 {
	t := make(rel.Tuple, len(vars))
	for i, v := range vars {
		t[i] = env[v]
	}
	return t.Key()
}

// MonteCarlo estimates the reliability of an arbitrary term with
// absolute error eps and confidence 1−delta by sampling worlds and
// averaging the normalized Hamming distance — the metafinite analogue
// of Theorem 5.12 (the queries are polynomial-time evaluable because
// the interpreted operations are).
func MonteCarlo(u *UDB, t Term, eps, delta float64, rng *rand.Rand) (Result, error) {
	vars := FreeVars(t)
	k := len(vars)
	observed := map[uint64]*big.Rat{}
	_, err := forEachTuple(u.Obs, t, func(env Env) error {
		v, err := t.Eval(u.Obs, env)
		if err != nil {
			return err
		}
		observed[envKey(env, vars)] = v
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	samples, err := mc.HoeffdingSampleSize(eps, delta)
	if err != nil {
		return Result{}, err
	}
	norm := 1.0
	for i := 0; i < k; i++ {
		norm *= float64(u.Obs.N)
	}
	sum := 0.0
	for i := 0; i < samples; i++ {
		b := u.SampleWorld(rng)
		diff := 0
		_, err := forEachTuple(b, t, func(env Env) error {
			v, err := t.Eval(b, env)
			if err != nil {
				return err
			}
			if v.Cmp(observed[envKey(env, vars)]) != 0 {
				diff++
			}
			return nil
		})
		if err != nil {
			return Result{}, err
		}
		sum += float64(diff) / norm
	}
	hNorm := sum / float64(samples)
	return Result{
		HFloat:  hNorm * norm,
		RFloat:  1 - hNorm,
		Arity:   k,
		Engine:  "mf-monte-carlo",
		Samples: samples,
	}, nil
}
