package main

import (
	"fmt"
	"math/big"
	"math/rand"

	"qrel/internal/karpluby"
	"qrel/internal/workload"
)

// runE5 reproduces Theorem 5.3: Prob-kDNF reduces to #DNF via the
// binary-encoding construction. For each denominator q (dyadic and
// non-dyadic), the table reports the reduction geometry (bits, size of
// φ”, legal fraction) and checks that recovering ν(φ) from the exact
// count of φ” matches direct brute-force probability computation. The
// size column demonstrates the polynomial blowup in the probability
// bit-length (exponential only in the fixed width k).
func runE5(cfg config, out *report) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	denoms := []int64{2, 3, 5, 7, 8, 12, 16}
	if cfg.quick {
		denoms = []int64{2, 3, 7, 16}
	}
	out.row("q", "bits", "terms(phi'')", "legal", "illegal", "nu exact", "nu via reduction", "agree", "time")
	allAgree := true
	for _, q := range denoms {
		d := workload.RandomKDNF(rng, 4, 3, 2)
		p := make([]*big.Rat, 4)
		for i := range p {
			p[i] = big.NewRat(rng.Int63n(q+1), q)
		}
		red, err := karpluby.Reduce(d, p)
		if err != nil {
			return err
		}
		count, err := red.PhiPP.CountBruteForce(26)
		if err != nil {
			return err
		}
		via := red.Recover(new(big.Rat).SetInt(count))
		exact, err := d.ProbBruteForce(p, 12)
		if err != nil {
			return err
		}
		agree := via.Cmp(exact) == 0
		allAgree = allAgree && agree
		exactF, _ := exact.Float64()
		viaF, _ := via.Float64()
		out.row(q, red.Bits, len(red.PhiPP.Terms), red.Legal, red.Illegal(), exactF, viaF, agree, "-")
	}
	out.check("reduction recovers nu(phi) exactly for dyadic and non-dyadic probabilities", allAgree)

	// Blowup shape: growing bit-length at fixed k.
	d := workload.RandomKDNF(rng, 3, 3, 2)
	prev := 0
	poly := true
	for _, q := range []int64{3, 61, 1021, 65521} {
		p := []*big.Rat{big.NewRat(1, q), big.NewRat(2, q), big.NewRat(q/2, q)}
		var red *karpluby.Reduction
		dt, err := out.timed(fmt.Sprintf("reduce/q=%d", q), func() (int, error) {
			var err error
			red, err = karpluby.Reduce(d, p)
			return 0, err
		})
		if err != nil {
			return err
		}
		ell := big.NewInt(q - 1).BitLen()
		terms := len(red.PhiPP.Terms)
		// Quadratic cap per the O(ell^2) comparison formulas.
		if terms > 3*ell*ell+6*ell {
			poly = false
		}
		out.row(fmt.Sprint("blowup q=", q), red.Bits, terms, "-", "-", "-", "-", terms >= prev, dt)
		prev = terms
	}
	out.check("phi'' size grows polynomially in the probability bit-length", poly)
	return nil
}
