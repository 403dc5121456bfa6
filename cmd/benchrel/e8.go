package main

import (
	"fmt"
	"math"
	"math/rand"

	"qrel/internal/core"
	"qrel/internal/logic"
	"qrel/internal/mc"
	"qrel/internal/rel"
	"qrel/internal/vm"
	"qrel/internal/workload"
)

// runE8 reproduces Theorem 5.12: for a polynomial-time evaluable query
// with quantifier alternation (outside every fragment with an exact
// fast engine), the ξ-padded Monte Carlo estimator achieves
// Pr[|M(D) − R_psi(D)| > ε] < δ, with the paper's sample size
// t(ε, δ) = ⌈(9/2ξε²)·ln(1/δ)⌉ (run at ε/2 per the proof). The trials
// column reports the empirically measured failure rate over repeated
// runs; the structural-vs-algebraic padding check confirms that the
// literal database modification D' and the Bernoulli shortcut estimate
// the same quantity.
func runE8(cfg config, out *report) error {
	query := logic.MustParse("forall x . exists y . E(x,y)", nil)
	rng := rand.New(rand.NewSource(cfg.seed))
	db := workload.RandomUDB(rng, 4, 8)
	exact, err := core.WorldEnum(cfg.ctx, db, query, core.Options{})
	if err != nil {
		return err
	}
	prep := logic.Prepare(query)
	pred := func(b *rel.Structure) (bool, error) { return prep.Holds(b, nil) }
	nuExact := exact.HFloat // Boolean query: H = nu or 1-nu
	obs, err := prep.Holds(db.A, nil)
	if err != nil {
		return err
	}
	if obs {
		nuExact = 1 - exact.HFloat
	}

	const xi = 0.25
	params := []struct{ eps, delta float64 }{
		{0.2, 0.1}, {0.1, 0.1}, {0.05, 0.05},
	}
	trials := 30
	if cfg.quick {
		trials = 10
		params = params[:2]
	}
	out.row("eps", "delta", "t(eps/2,delta)", "trials", "max |err|", "fail rate", "ok")
	allOK := true
	for _, p := range params {
		tWant, err := mc.PaperSampleSize(xi, p.eps/2, p.delta)
		if err != nil {
			return err
		}
		failures := 0
		maxErr := 0.0
		for trial := 0; trial < trials; trial++ {
			est, err := mc.EstimateNuPadded(cfg.ctx, mc.PaddedPred(db, pred), xi, p.eps, p.delta, 0,
				mc.Stream{Src: mc.NewSource(cfg.seed + int64(trial)*101)})
			if err != nil {
				return err
			}
			if est.Samples != tWant {
				return fmt.Errorf("sample size %d, formula gives %d", est.Samples, tWant)
			}
			e := math.Abs(est.Value - nuExact)
			if e > maxErr {
				maxErr = e
			}
			if e > p.eps {
				failures++
			}
		}
		rate := float64(failures) / float64(trials)
		ok := rate <= 2*p.delta // generous: delta is an upper bound
		allOK = allOK && ok
		out.row(p.eps, p.delta, tWant, trials, maxErr, rate, ok)
	}
	out.check("padded estimator meets the absolute (eps, delta) guarantee", allOK)

	// Structural vs algebraic padding: both estimate nu within eps.
	est1, err := mc.EstimateNuPadded(cfg.ctx, mc.PaddedPred(db, pred), xi, 0.1, 0.05, 0, mc.Stream{Src: mc.NewSource(cfg.seed)})
	if err != nil {
		return err
	}
	est2, err := mc.EstimateNuPaddedStructural(cfg.ctx, db, pred, xi, 0.1, 0.05, 0, mc.Stream{Src: mc.NewSource(cfg.seed)})
	if err != nil {
		return err
	}
	out.row("padding", "algebraic", "-", "-", math.Abs(est1.Value-nuExact), "-", "-")
	out.row("padding", "structural", "-", "-", math.Abs(est2.Value-nuExact), "-", "-")
	out.check("structural (paper-literal) and algebraic padding agree within eps",
		math.Abs(est1.Value-nuExact) <= 0.1 && math.Abs(est2.Value-nuExact) <= 0.1)

	// Rate: the lane-split padded estimator on 1 and 8 workers, the
	// interpreted walk against the compiled program, over one
	// fixed-lane stream.
	prog, err := vm.NewCompiler(db).Compile(query, logic.Env{})
	if err != nil {
		return err
	}
	epss := []float64{0.2, 0.1}
	if cfg.quick {
		epss = epss[:1]
	}
	return rateSweep(out, epss, func(eps float64, workers int, compiled bool) (float64, int, error) {
		kernel := mc.PaddedPred(db, pred)
		if compiled {
			kernel = mc.PaddedProgram(db, prog)
		}
		est, err := mc.EstimateNuPadded(cfg.ctx, kernel, xi, eps, 0.1, 0, mc.Stream{Seed: cfg.seed, Workers: workers})
		return est.Value, est.Samples, err
	})
}
