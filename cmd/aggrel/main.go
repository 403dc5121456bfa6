// Command aggrel computes the reliability of aggregate (metafinite)
// queries on unreliable functional databases — the Section 6 model.
//
// Usage:
//
//	aggrel -db salaries.mfdb -query 'sum_x(salary(x))' [-engine auto|qfree|enum|mc]
//
// The query language has arithmetic (+, -, *), min/max, characteristic
// brackets [a = b] and [a < b], and the aggregate binders sum_v, prod_v,
// min_v, max_v, avg_v, count_v; first-order variables range over the
// finite universe.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"qrel/internal/cliutil"
	"qrel/internal/metafinite"
	"qrel/internal/unreliable"
)

func main() {
	var (
		dbPath = flag.String("db", "", "path to the functional database (aggrel text format); '-' for stdin")
		query  = flag.String("query", "", "aggregate term, e.g. 'avg_x(salary(x))'")
		engine = flag.String("engine", "auto", "engine: auto|qfree|enum|mc")
		eps    = flag.Float64("eps", 0.05, "absolute error of the mc engine")
		delta  = flag.Float64("delta", 0.05, "failure probability of the mc engine")
		seed   = flag.Int64("seed", 1, "random seed of the mc engine")
	)
	flag.Parse()
	if err := run(*dbPath, *query, *engine, *eps, *delta, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "aggrel:", err)
		// Same exit-code contract as relcalc: usage 2, canceled 3,
		// budget 4, infeasible 5, engine 6, anything else 1.
		os.Exit(cliutil.ExitCode(err))
	}
}

func run(dbPath, query, engine string, eps, delta float64, seed int64) (err error) {
	defer cliutil.Recover(&err)
	if dbPath == "" || query == "" {
		return cliutil.UsageErrorf("both -db and -query are required")
	}
	switch engine {
	case "auto", "", "qfree", "enum", "mc":
	default:
		return cliutil.UsageErrorf("unknown engine %q", engine)
	}
	in := os.Stdin
	if dbPath != "-" {
		f, err := os.Open(dbPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	u, err := metafinite.ParseUDB(in)
	if err != nil {
		return err
	}
	term, err := metafinite.Parse(query)
	if err != nil {
		return err
	}
	fmt.Printf("universe: %d elements, %d uncertain sites, %v possible worlds\n",
		u.Obs.N, len(u.UncertainSites()), u.WorldCount())
	fmt.Printf("query:    %s\n", term)
	if fv := metafinite.FreeVars(term); len(fv) > 0 {
		fmt.Printf("free variables: %v (reliability normalized by n^%d)\n", fv, len(fv))
	}
	if obs, err := evalObserved(u, term); err == nil {
		fmt.Printf("observed value(s): %s\n", obs)
	}

	var res metafinite.Result
	ctx := context.Background()
	switch engine {
	case "qfree":
		res, err = metafinite.QuantifierFree(ctx, u, term, 0)
	case "enum":
		res, err = metafinite.WorldEnum(ctx, u, term, 0)
	case "mc":
		res, err = metafinite.MonteCarlo(ctx, u, term, eps, delta, seed)
	case "auto", "":
		if metafinite.IsQuantifierFree(term) {
			res, err = metafinite.QuantifierFree(ctx, u, term, 0)
		} else if res, err = metafinite.WorldEnum(ctx, u, term, 0); errors.Is(err, unreliable.ErrEnumBudget) {
			res, err = metafinite.MonteCarlo(ctx, u, term, eps, delta, seed)
		}
	default:
		return fmt.Errorf("unknown engine %q", engine)
	}
	if err != nil {
		return err
	}
	fmt.Printf("engine:   %s\n", res.Engine)
	if res.H != nil {
		fmt.Printf("H = %s  (= %.6g)\n", res.H.RatString(), res.HFloat)
		fmt.Printf("R = %s  (= %.6g)\n", res.R.RatString(), res.RFloat)
	} else {
		fmt.Printf("H ≈ %.6g   R ≈ %.6g   (eps %.3g, delta %.3g, %d samples)\n",
			res.HFloat, res.RFloat, eps, delta, res.Samples)
	}
	return nil
}

// evalObserved renders the observed query value (Boolean query) or the
// first few tuple values (k-ary query).
func evalObserved(u *metafinite.UDB, term metafinite.Term) (string, error) {
	fv := metafinite.FreeVars(term)
	if len(fv) == 0 {
		v, err := term.Eval(u.Obs, metafinite.Env{})
		if err != nil {
			return "", err
		}
		return v.RatString(), nil
	}
	if len(fv) > 1 || u.Obs.N > 8 {
		return "", fmt.Errorf("too many values to display")
	}
	out := ""
	env := metafinite.Env{}
	for e := 0; e < u.Obs.N; e++ {
		env[fv[0]] = e
		v, err := term.Eval(u.Obs, env)
		if err != nil {
			return "", err
		}
		if e > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%s", fmt.Sprint(e), v.RatString())
	}
	return out, nil
}
