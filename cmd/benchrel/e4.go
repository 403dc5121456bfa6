package main

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"

	"qrel/internal/bdd"
	"qrel/internal/karpluby"
	"qrel/internal/mc"

	"qrel/internal/workload"
)

// runE4 reproduces Theorem 5.2 (Karp–Luby): #DNF admits an FPTRAS. The
// sweep draws random kDNFs, counts them exactly with the BDD engine,
// and measures the Karp–Luby estimator's relative error and cost across
// ε; the verdict requires the advertised error at the advertised
// confidence. A second table contrasts Karp–Luby with naive uniform
// sampling on a low-density instance (few satisfying assignments):
// given the same number of samples, naive MC typically sees zero hits
// and reports 0 — unbounded relative error — while Karp–Luby stays
// within ε, which is exactly why the coverage construction exists.
func runE4(cfg config, out *report) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	instances := []struct {
		vars, terms, k int
	}{
		{20, 20, 3},
		{30, 40, 3},
		{40, 30, 4},
	}
	epss := []float64{0.2, 0.1, 0.05}
	if cfg.quick {
		instances = instances[:2]
		epss = []float64{0.2, 0.1}
	}
	const delta = 0.05
	out.row("vars", "terms", "eps", "exact", "estimate", "rel err", "samples", "t(1/m)", "time")
	failures, rows := 0, 0
	for _, inst := range instances {
		d := workload.RandomKDNF(rng, inst.vars, inst.terms, inst.k)
		mgr := bdd.New(d.NumVars, 0)
		root, err := mgr.FromDNF(d)
		if err != nil {
			return err
		}
		exact := mgr.Count(root)
		exactF, _ := new(big.Rat).SetInt(exact).Float64()
		for _, eps := range epss {
			var res karpluby.CountResult
			stream := mc.Stream{Seed: cfg.seed + int64(rows)} // one seed per row, re-run by every call
			dt, err := out.timed(fmt.Sprintf("count/vars=%d/eps=%g", inst.vars, eps), func() (int, error) {
				var err error
				res, err = karpluby.CountDNF(cfg.ctx, d, eps, delta, karpluby.CountBatched, stream)
				return res.Samples, err
			})
			if err != nil {
				return err
			}
			// Lemma 5.11's worst case, which the planned sample count replaces.
			worst, err := karpluby.SampleSize(eps, delta, len(d.Terms))
			if err != nil {
				return err
			}
			relErr := math.Abs(res.Float()-exactF) / exactF
			rows++
			if relErr > eps {
				failures++
			}
			out.row(inst.vars, inst.terms, eps, exactF, res.Float(), relErr, res.Samples, worst, dt)
		}
	}
	// With delta = 5% per row, more than ~30% failures means the
	// estimator is broken rather than unlucky.
	out.check("Karp–Luby achieves relative error eps at confidence 1-delta", failures*10 <= 3*rows)

	// Low-density contrast: terms are 20-literal positive conjunctions
	// over 56 vars, so the union covers ≈ terms·2^-20 of the space and a
	// uniform sampler essentially never hits it.
	sparse := workload.SparseKDNF(rng, 56, 6, 20)
	mgr := bdd.New(sparse.NumVars, 0)
	root, err := mgr.FromDNF(sparse)
	if err != nil {
		return err
	}
	exact := mgr.Count(root)
	exactF, _ := new(big.Rat).SetInt(exact).Float64()
	kl, err := karpluby.CountDNF(cfg.ctx, sparse, 0.1, 0.05, karpluby.CountBatched, mc.Stream{Seed: cfg.seed})
	if err != nil {
		return err
	}
	// Naive MC with the same sample budget.
	hits := 0
	a := make([]bool, sparse.NumVars)
	for i := 0; i < kl.Samples; i++ {
		for j := range a {
			a[j] = rng.Intn(2) == 0
		}
		if sparse.Eval(a) {
			hits++
		}
	}
	naive := float64(hits) / float64(kl.Samples) * math.Pow(2, float64(sparse.NumVars))
	klErr := math.Abs(kl.Float()-exactF) / exactF
	naiveErr := math.Abs(naive-exactF) / exactF
	out.row("sparse", len(sparse.Terms), "0.1", exactF, kl.Float(), klErr, kl.Samples, "-", "-")
	out.row("sparse(naive)", len(sparse.Terms), "-", exactF, naive, naiveErr, kl.Samples, "-", "-")
	out.check("Karp–Luby beats naive MC on the low-density instance", klErr <= 0.1 && naiveErr > klErr)

	// Rate: the lane-split run on 1 and 8 workers, interpreted and
	// compiled, over one fixed-lane stream.
	par := workload.RandomKDNF(rand.New(rand.NewSource(cfg.seed)), 30, 40, 3)
	return rateSweep(out, epss, func(eps float64, workers int, compiled bool) (float64, int, error) {
		kernel := karpluby.CountKernel(karpluby.CountScalar)
		if compiled {
			kernel = karpluby.CountBatched
		}
		res, err := karpluby.CountDNF(cfg.ctx, par, eps, delta, kernel, mc.Stream{Seed: cfg.seed, Workers: workers})
		return res.Float(), res.Samples, err
	})
}

// rateSweep times run for each eps on 1 and 8 workers in both eval
// modes, one row each, and checks that every row of an eps carries the
// same estimate.
func rateSweep(out *report, epss []float64, run func(eps float64, workers int, compiled bool) (float64, int, error)) error {
	out.row("workers", "eval", "eps", "estimate", "samples", "samples/s", "time")
	identical := true
	for _, eps := range epss {
		estimates := map[float64]bool{}
		for _, workers := range []int{1, 8} {
			for _, eval := range []string{"interpreted", "compiled"} {
				var est float64
				var samples int
				dt, err := out.timed(fmt.Sprintf("par/eps=%g/workers=%d/eval=%s", eps, workers, eval), func() (int, error) {
					var err error
					est, samples, err = run(eps, workers, eval == "compiled")
					return samples, err
				})
				if err != nil {
					return err
				}
				estimates[est] = true
				out.row(workers, eval, eps, est, samples, float64(samples)/dt.Seconds(), dt)
			}
		}
		identical = identical && len(estimates) == 1
	}
	out.check("every worker count and eval mode gives the identical estimate", identical)
	return nil
}
