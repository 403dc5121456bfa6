// Aggregates: the Section 6 metafinite scenario. Salaries in an HR
// database carry per-record uncertainty; SQL-style aggregate queries
// (SUM, AVG, MAX, COUNT) get reliability numbers: the probability that
// the reported aggregate equals the aggregate over the true data.
//
//	go run ./examples/aggregates [-employees 12] [-seed 5]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"

	"qrel/internal/metafinite"
	"qrel/internal/unreliable"
	"qrel/internal/workload"
)

func main() {
	employees := flag.Int("employees", 12, "number of employees")
	seed := flag.Int64("seed", 5, "generator seed")
	flag.Parse()

	ctx := context.Background()
	u, err := workload.SalaryUDB(rand.New(rand.NewSource(*seed)), *employees, 0.3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HR database: %d employees, %d uncertain salary records, %v possible worlds\n\n",
		*employees, len(u.UncertainSites()), u.WorldCount())

	salary := metafinite.FApp{Fn: "salary", Args: []metafinite.FOTerm{metafinite.V("x")}}
	queries := []struct {
		name string
		term metafinite.Term
	}{
		{"SUM(salary)", metafinite.SumAgg{Var: "x", Body: salary}},
		{"AVG(salary)", metafinite.AvgAgg{Var: "x", Body: salary}},
		{"MAX(salary)", metafinite.MaxAgg{Var: "x", Body: salary}},
		{"COUNT(salary > 600)", metafinite.CountAgg{Var: "x",
			Body: metafinite.CharLess{L: metafinite.NumInt(600), R: salary}}},
		{"salary(x)  [unary]", salary},
	}
	for _, q := range queries {
		observed, err := q.term.Eval(u.Obs, metafinite.Env{})
		obsStr := "-"
		if err == nil {
			obsStr = observed.RatString()
		}
		var res metafinite.Result
		if metafinite.IsQuantifierFree(q.term) {
			res, err = metafinite.QuantifierFree(ctx, u, q.term, 0)
		} else {
			res, err = metafinite.WorldEnum(ctx, u, q.term, 0)
		}
		if errors.Is(err, unreliable.ErrEnumBudget) {
			// Too many worlds for exact: fall back to Monte Carlo.
			res, err = metafinite.MonteCarlo(ctx, u, q.term, 0.02, 0.02, *seed)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s observed %-8s R = %.4f  (H = %.4f, engine %s)\n",
			q.name, obsStr, res.RFloat, res.HFloat, res.Engine)
	}

	fmt.Println("\nnote: MAX is often perfectly reliable while SUM is fragile —")
	fmt.Println("a single uncertain record flips SUM but rarely the maximum.")
}
