package main

import (
	"fmt"
	"math/big"
	"math/rand"

	"qrel/internal/logic"
	"qrel/internal/rel"
	"qrel/internal/sharpp"
	"qrel/internal/workload"
)

// runE3 reproduces Theorem 4.2: simulating the nondeterministic
// counting machine — guess a world, split nu(B)·g times, accept where
// the query holds — recovers Pr[B ⊨ psi] exactly, and the
// Regan–Schwentick padded variant recovers the same count regardless of
// adversarial junk bits. The sweep over the number of uncertain atoms u
// exposes the 2^u cost of evaluating the oracle deterministically.
//
// The table also reports the g-normalizer erratum: the paper's
// gcd-loop (an LCM) versus the corrected product of denominators; the
// "lcm ok" column shows on how many instances the paper's g would have
// produced non-integral leaf counts.
func runE3(cfg config, out *report) error {
	sizes := []int{2, 4, 6, 8, 10, 12}
	if cfg.quick {
		sizes = []int{2, 4, 6, 8}
	}
	query := logic.Prepare(logic.MustParse("forall x . exists y . E(x,y) | S(x)", nil))
	pred := func(b *rel.Structure) (bool, error) { return query.Holds(b, nil) }

	out.row("u", "worlds", "g bits", "Pr (oracle)", "oracle=direct", "padded=direct", "lcm ok", "t_oracle")
	allOracle, allPadded := true, true
	lcmFailures := 0
	for _, u := range sizes {
		rng := rand.New(rand.NewSource(cfg.seed + int64(u)))
		db := workload.RandomUDB(rng, 4, u)

		var o sharpp.Oracle
		dt, err := out.timed(fmt.Sprintf("oracle/u=%d", u), func() (int, error) {
			var err error
			o, err = sharpp.CountAcceptingPaths(db, pred, 20)
			return 0, err
		})
		if err != nil {
			return err
		}
		// Direct enumeration, independent of the oracle machinery.
		direct := new(big.Rat)
		err = db.ForEachWorld(20, func(b *rel.Structure, nu *big.Rat) bool {
			ok, err := pred(b)
			if err != nil {
				return false
			}
			if ok {
				direct.Add(direct, nu)
			}
			return true
		})
		if err != nil {
			return err
		}
		oracleOK := o.Prob().Cmp(direct) == 0
		allOracle = allOracle && oracleOK

		po, err := sharpp.CountViaPadding(db, pred, rand.New(rand.NewSource(cfg.seed*7+int64(u))), 20)
		if err != nil {
			return err
		}
		paddedOK := po.Prob().Cmp(direct) == 0
		allPadded = allPadded && paddedOK

		// Erratum check: does the paper's lcm-g clear every world?
		lcm := db.GPaperLCM()
		lcmOK := true
		db.ForEachWorld(20, func(_ *rel.Structure, nu *big.Rat) bool {
			x := new(big.Rat).Mul(nu, new(big.Rat).SetInt(lcm))
			if !x.IsInt() {
				lcmOK = false
				return false
			}
			return true
		})
		if !lcmOK {
			lcmFailures++
		}
		pf, _ := o.Prob().Float64()
		out.row(u, o.Worlds, o.G.BitLen(), pf, oracleOK, paddedOK, lcmOK, dt)
	}
	out.check("oracle count / g equals direct probability on every instance", allOracle)
	out.check("padded extraction is junk-proof on every instance", allPadded)
	out.check("erratum reproduced: paper's lcm-g fails on at least one instance", lcmFailures > 0)
	return nil
}
