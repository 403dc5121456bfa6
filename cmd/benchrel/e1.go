package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"qrel/internal/core"
	"qrel/internal/logic"
	"qrel/internal/workload"
)

// runE1 reproduces Proposition 3.1: the reliability of quantifier-free
// queries is computable in polynomial time. The table sweeps the
// universe size for queries of arity 1 and 2 and reports the engine's
// running time; the verdict checks (a) exact agreement with world
// enumeration on small instances and (b) polynomial scaling — time
// growth between successive doublings of n stays within a constant
// factor of the n^k tuple-count growth.
func runE1(cfg config, out *report) error {
	queries := []struct {
		name string
		src  string
		k    int
	}{
		{"unary", "S(x) & !E(x,x)", 1},
		{"binary", "E(x,y) & (S(x) | S(y))", 2},
		{"sentence", "E(0,1) <-> S(0)", 0},
	}
	sizes := []int{8, 16, 32, 64, 128}
	if cfg.quick {
		sizes = []int{8, 16, 32}
	}
	out.row("query", "n", "uncertain", "H", "R", "time")
	for _, q := range queries {
		f := logic.MustParse(q.src, nil)
		var times []time.Duration
		for _, n := range sizes {
			rng := rand.New(rand.NewSource(cfg.seed + int64(n)))
			db := workload.AddUncertainty(rng, workload.RandomStructure(rng, n, 0.2, 0.5), n/2, 10)
			var res core.Result
			dt, err := out.timed(fmt.Sprintf("%s/n=%d", q.name, n), func() (int, error) {
				var err error
				res, err = core.QuantifierFree(cfg.ctx, db, f, core.Options{})
				return 0, err
			})
			if err != nil {
				return err
			}
			times = append(times, dt)
			out.row(q.name, n, db.NumUncertain(), res.HFloat, res.RFloat, dt)

			// Cross-check against enumeration where feasible.
			if n == sizes[0] {
				exact, err := core.WorldEnum(cfg.ctx, db, f, core.Options{})
				if err != nil {
					return err
				}
				out.check(fmt.Sprintf("%s agrees with world enumeration at n=%d", q.name, n), res.H.Cmp(exact.H) == 0)
			}
		}
		// Polynomial shape: time per tuple must not explode. Compare the
		// last/first time ratio against the tuple-count ratio with slack.
		nRatio := float64(sizes[len(sizes)-1]) / float64(sizes[0])
		tupleGrowth := math.Pow(nRatio, float64(q.k)) * nRatio // n^k tuples × per-tuple O(n^0..1) slack
		timeGrowth := float64(times[len(times)-1]) / float64(max(times[0], time.Microsecond))
		out.check(q.name+" scales polynomially", timeGrowth < 64*tupleGrowth)
	}
	return nil
}
