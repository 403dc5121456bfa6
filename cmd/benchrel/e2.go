package main

import (
	"fmt"
	"math/rand"

	"qrel/internal/core"
	"qrel/internal/reductions"
)

// runE2 reproduces Proposition 3.2: the expected error of the fixed
// conjunctive query on the #MONOTONE-2SAT reduction instance satisfies
// H·2^n = #SAT on every instance, verified against two independent
// counters (brute force where feasible, independent-set branching
// everywhere). The table also records the exact engines' running times;
// the exponential growth of world enumeration against the variable
// count — while the polynomial-size reduction itself stays cheap — is
// the observable face of #P-hardness.
func runE2(cfg config, out *report) error {
	sizes := []int{4, 6, 8, 10, 12, 16, 20}
	if cfg.quick {
		sizes = []int{4, 6, 8, 10}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	out.row("vars", "clauses", "#SAT(IS)", "H·2^n", "agree", "t_bdd", "t_enum")
	allAgree := true
	for _, n := range sizes {
		c := reductions.RandomMonotone2CNF(rng, n, n+n/2)
		inst, err := reductions.BuildMon2SatInstance(c)
		if err != nil {
			return err
		}
		var res core.Result
		tBDD, err := out.timed(fmt.Sprintf("lineage-bdd/vars=%d", n), func() (int, error) {
			var err error
			res, err = core.LineageBDD(cfg.ctx, inst.DB, inst.Query, core.Options{})
			return 0, err
		})
		if err != nil {
			return err
		}
		count, err := inst.ExpectedCount(res.H)
		if err != nil {
			return err
		}
		want, err := c.CountSat()
		if err != nil {
			return err
		}
		agree := count.Cmp(want) == 0
		allAgree = allAgree && agree

		enumCol := "skipped"
		if n <= 12 {
			tEnum, err := out.timed(fmt.Sprintf("world-enum/vars=%d", n), func() (int, error) {
				res2, err := core.WorldEnum(cfg.ctx, inst.DB, inst.Query, core.Options{})
				if err == nil && res2.H.Cmp(res.H) != 0 {
					allAgree = false
				}
				return 0, err
			})
			if err != nil {
				return err
			}
			enumCol = tEnum.String()
			// Brute-force counter cross-check.
			bf, err := c.CountSatBruteForce(12)
			if err != nil {
				return err
			}
			if bf.Cmp(want) != 0 {
				allAgree = false
			}
		}
		out.row(n, len(c.Clauses), want, count, agree, tBDD, enumCol)
	}
	out.check("H·2^n = #SAT on every instance (two counters, two engines)", allAgree)
	return nil
}
