// Command dnfcount counts (or estimates) the satisfying assignments of
// a DNF formula in DIMACS-style format, exercising the counting stack
// of Theorem 5.2: exact brute force, exact inclusion–exclusion, exact
// BDD compilation, and the Karp–Luby FPTRAS.
//
// Usage:
//
//	dnfcount -in formula.dnf -method karpluby -eps 0.05 -delta 0.05
//
// With -probs 'p1,p2,...' (one rational per variable) the weighted
// problem Prob-DNF is solved instead, including the paper's Theorem 5.3
// binary-encoding reduction (-method thm53).
package main

import (
	"context"
	"flag"
	"fmt"
	"math/big"
	"os"
	"strings"

	"qrel/internal/bdd"
	"qrel/internal/cliutil"
	"qrel/internal/karpluby"
	"qrel/internal/mc"
	"qrel/internal/prop"
)

func main() {
	var (
		in     = flag.String("in", "", "DNF file in DIMACS-style format; '-' for stdin")
		method = flag.String("method", "bdd", "method: brute|ie|bdd|karpluby|thm53")
		eps    = flag.Float64("eps", 0.05, "relative error (karpluby, thm53)")
		delta  = flag.Float64("delta", 0.05, "failure probability (karpluby, thm53)")
		seed   = flag.Int64("seed", 1, "random seed")
		probs  = flag.String("probs", "", "comma-separated variable probabilities (rationals); empty = count models")
	)
	flag.Parse()
	if err := run(*in, *method, *eps, *delta, *seed, *probs); err != nil {
		fmt.Fprintln(os.Stderr, "dnfcount:", err)
		os.Exit(cliutil.ExitCode(err))
	}
}

func run(in, method string, eps, delta float64, seed int64, probsCSV string) (err error) {
	defer cliutil.Recover(&err)
	if in == "" {
		return cliutil.UsageErrorf("-in is required")
	}
	switch method {
	case "brute", "ie", "bdd", "karpluby", "thm53":
	default:
		return cliutil.UsageErrorf("unknown method %q", method)
	}
	if eps <= 0 || eps >= 1 || delta <= 0 || delta >= 1 {
		return cliutil.UsageErrorf("-eps and -delta must lie in (0, 1)")
	}
	f := os.Stdin
	if in != "-" {
		var err error
		f, err = os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
	}
	d, err := prop.ParseDNF(f)
	if err != nil {
		return err
	}
	fmt.Printf("formula: %d variables, %d terms, width %d\n", d.NumVars, len(d.Terms), d.Width())

	var p prop.ProbAssignment
	if probsCSV != "" {
		parts := strings.Split(probsCSV, ",")
		if len(parts) != d.NumVars {
			return fmt.Errorf("-probs lists %d probabilities, formula has %d variables", len(parts), d.NumVars)
		}
		p = make(prop.ProbAssignment, d.NumVars)
		for i, s := range parts {
			r, ok := new(big.Rat).SetString(strings.TrimSpace(s))
			if !ok {
				return fmt.Errorf("bad probability %q", s)
			}
			p[i] = r
		}
	}
	ctx := context.Background()
	stream := mc.Stream{Seed: seed}

	switch method {
	case "brute":
		if p == nil {
			c, err := d.CountBruteForce(30)
			if err != nil {
				return err
			}
			fmt.Printf("#models = %v\n", c)
		} else {
			pr, err := d.ProbBruteForce(p, 24)
			if err != nil {
				return err
			}
			fmt.Printf("Prob = %s (= %.6g)\n", pr.RatString(), ratF(pr))
		}
	case "ie":
		if p == nil {
			c, err := d.CountInclusionExclusion(24)
			if err != nil {
				return err
			}
			fmt.Printf("#models = %v\n", c)
		} else {
			pr, err := d.ProbInclusionExclusion(p, 24)
			if err != nil {
				return err
			}
			fmt.Printf("Prob = %s (= %.6g)\n", pr.RatString(), ratF(pr))
		}
	case "bdd":
		mgr := bdd.New(d.NumVars, 0)
		root, err := mgr.FromDNF(d)
		if err != nil {
			return err
		}
		fmt.Printf("BDD size: %d nodes\n", mgr.Size(root))
		if p == nil {
			fmt.Printf("#models = %v\n", mgr.Count(root))
		} else {
			pr, err := mgr.Prob(root, p)
			if err != nil {
				return err
			}
			fmt.Printf("Prob = %s (= %.6g)\n", pr.RatString(), ratF(pr))
		}
	case "karpluby":
		var res karpluby.CountResult
		if p == nil {
			res, err = karpluby.CountDNF(ctx, d, eps, delta, karpluby.CountBatched, stream)
		} else {
			res, err = karpluby.ProbDNF(ctx, d, p, eps, delta, karpluby.ProbBatched, stream)
		}
		if err != nil {
			return err
		}
		fmt.Printf("estimate = %.6g  (%d samples, %d hits, relative error %.3g at confidence %.3g)\n",
			res.Float(), res.Samples, res.Hits, eps, 1-delta)
	case "thm53":
		if p == nil {
			return cliutil.UsageErrorf("-method thm53 solves Prob-kDNF; provide -probs")
		}
		red, err := karpluby.Reduce(d, p)
		if err != nil {
			return err
		}
		fmt.Printf("Theorem 5.3 reduction: %d bits, %d terms in phi'', %v legal of 2^%d assignments\n",
			red.Bits, len(red.PhiPP.Terms), red.Legal, red.Bits)
		res, err := karpluby.CountDNF(ctx, red.PhiPP, eps, delta, karpluby.CountBatched, stream)
		if err != nil {
			return err
		}
		fmt.Printf("estimate = %.6g  (%d samples)\n", ratF(red.Recover(res.Estimate)), res.Samples)
	default:
		return fmt.Errorf("unknown method %q", method)
	}
	return nil
}

func ratF(r *big.Rat) float64 {
	f, _ := r.Float64()
	return f
}
