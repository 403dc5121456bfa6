package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"qrel/internal/metafinite"
	"qrel/internal/workload"
)

// runE9 reproduces Theorem 6.2 on metafinite (functional) databases:
// (i) the reliability of quantifier-free terms is computable in
// polynomial time — timed sweep, exact agreement with world
// enumeration; (ii) first-order aggregate terms (Σ, min, max, avg) are
// handled exactly by world enumeration (the FP^#P simulation), with the
// Monte Carlo estimator staying within its absolute-error bound.
func runE9(cfg config, out *report) error {
	salary := func(v string) metafinite.Term {
		return metafinite.FApp{Fn: "salary", Args: []metafinite.FOTerm{metafinite.V(v)}}
	}
	qfTerm := metafinite.Add{L: salary("x"), R: metafinite.NumInt(100)}
	sizes := []int{8, 16, 32, 64, 128}
	if cfg.quick {
		sizes = []int{8, 16, 32}
	}
	out.row("term", "n", "uncertain", "H", "R", "engine", "time")
	var times []time.Duration
	agree := true
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(cfg.seed + int64(n)))
		// Cap uncertainty so the enumeration cross-check stays feasible
		// on the smallest size but the qfree engine runs on all.
		u, err := workload.SalaryUDB(rng, n, 0.2)
		if err != nil {
			return err
		}
		var res metafinite.Result
		dt, err := out.timed(fmt.Sprintf("qfree/n=%d", n), func() (int, error) {
			var err error
			res, err = metafinite.QuantifierFree(cfg.ctx, u, qfTerm, 0)
			return 0, err
		})
		if err != nil {
			return err
		}
		times = append(times, dt)
		out.row("salary+100", n, len(u.UncertainSites()), res.HFloat, res.RFloat, res.Engine, dt)
		if len(u.UncertainSites()) <= 16 {
			enum, err := metafinite.WorldEnum(cfg.ctx, u, qfTerm, 0)
			if err != nil {
				return err
			}
			agree = agree && res.H.Cmp(enum.H) == 0
		}
	}
	out.check("metafinite qfree engine agrees with world enumeration", agree)
	nRatio := float64(sizes[len(sizes)-1]) / float64(sizes[0])
	growth := float64(times[len(times)-1]) / float64(max(times[0], time.Microsecond))
	out.check("metafinite qfree reliability scales polynomially", growth < 64*nRatio*nRatio)

	// Aggregates: exact via enumeration, MC within bound.
	rng := rand.New(rand.NewSource(cfg.seed))
	u, err := workload.SalaryUDB(rng, 10, 0.4)
	if err != nil {
		return err
	}
	aggs := []struct {
		name string
		term metafinite.Term
	}{
		{"sum", metafinite.SumAgg{Var: "x", Body: salary("x")}},
		{"max", metafinite.MaxAgg{Var: "x", Body: salary("x")}},
		{"avg", metafinite.AvgAgg{Var: "x", Body: salary("x")}},
		{"count>500", metafinite.CountAgg{Var: "x", Body: metafinite.CharLess{L: metafinite.NumInt(500), R: salary("x")}}},
	}
	mcOK := true
	for _, a := range aggs {
		exact, err := metafinite.WorldEnum(cfg.ctx, u, a.term, 0)
		if err != nil {
			return err
		}
		est, err := metafinite.MonteCarlo(cfg.ctx, u, a.term, 0.05, 0.05, cfg.seed+7)
		if err != nil {
			return err
		}
		absErr := math.Abs(est.RFloat - exact.RFloat)
		if absErr > 0.05 {
			mcOK = false
		}
		out.row(a.name, 10, len(u.UncertainSites()), exact.HFloat, exact.RFloat, "enum vs mc", absErr)
	}
	out.check("aggregate Monte Carlo within absolute error of exact enumeration", mcOK)

	// Theorem 6.2 (iii): a second-order aggregate — max over all subsets
	// S of Σ_{x∈S} salary(x), i.e. the sum of positive salaries (all of
	// them here) — handled exactly by world enumeration.
	soBody := metafinite.SumAgg{Var: "x", Body: metafinite.Mul{
		L: metafinite.InSet("S", metafinite.V("x")),
		R: salary("x"),
	}}
	soTerm := metafinite.SOMax{Set: "S", Arity: 1, Body: soBody}
	small, err := workload.SalaryUDB(rand.New(rand.NewSource(cfg.seed+9)), 4, 0.5)
	if err != nil {
		return err
	}
	soExact, err := metafinite.WorldEnum(cfg.ctx, small, soTerm, 0)
	if err != nil {
		return err
	}
	// Cross-check: with all salaries positive, the SO max equals the
	// plain SUM, so their reliabilities coincide.
	sumRes, err := metafinite.WorldEnum(cfg.ctx, small, metafinite.SumAgg{Var: "x", Body: salary("x")}, 0)
	if err != nil {
		return err
	}
	out.row("so-maxset", 4, len(small.UncertainSites()), soExact.HFloat, soExact.RFloat, "thm 6.2(iii)", "-")
	out.check("second-order aggregate reliability matches the equivalent first-order query",
		soExact.H.Cmp(sumRes.H) == 0)
	return nil
}
