// Census: the dirty-data scenario from the paper's introduction. A
// digitized census has per-fact error probabilities; before acting on a
// query answer, the analyst asks how reliable that answer is — and gets
// a per-tuple risk report for the people whose records are shakiest.
//
//	go run ./examples/census [-people 12] [-seed 3]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sort"

	"qrel"
	"qrel/internal/workload"
)

func main() {
	people := flag.Int("people", 12, "number of persons in the census")
	seed := flag.Int64("seed", 3, "generator seed")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	db, err := workload.CensusDB(rng, *people, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("census: %d persons + 3 districts, %d facts, %d uncertain atoms\n\n",
		*people, db.A.FactCount(), db.NumUncertain())

	names := make([]string, 0, len(workload.CensusQueries))
	for name := range workload.CensusQueries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		src := workload.CensusQueries[name]
		q, err := qrel.ParseQuery(src, db.A.Voc)
		if err != nil {
			log.Fatal(err)
		}
		res, err := qrel.Reliability(context.Background(), db, q, qrel.Options{Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s %s\n", name, src)
		if res.Guarantee == qrel.Exact {
			fmt.Printf("  R = %s (= %.4f), engine %s\n", res.R.RatString(), res.RFloat, res.Engine)
		} else {
			fmt.Printf("  R ≈ %.4f (±%.2g), engine %s, %d samples\n", res.RFloat, res.Eps, res.Engine, res.Samples)
		}
	}

	// Risk report: which persons' "employed spouse" answer is least
	// reliable?
	q := qrel.MustParseQuery(workload.CensusQueries["spouse-employed"], db.A.Voc)
	per, err := qrel.ExpectedErrorPerTuple(context.Background(), db, q, qrel.Options{})
	if err != nil {
		log.Fatal(err)
	}
	sort.Slice(per, func(i, j int) bool { return per[i].H.Cmp(per[j].H) > 0 })
	fmt.Println("\nriskiest 'employed spouse' answers:")
	shown := 0
	for _, te := range per {
		if te.H.Sign() == 0 || shown == 5 {
			break
		}
		state := "not in answer"
		if te.Observed {
			state = "in answer"
		}
		fmt.Printf("  person %v (%s): Pr[flips] = %s\n", te.Tuple, state, te.H.RatString())
		shown++
	}
	if shown == 0 {
		fmt.Println("  every answer tuple is absolutely reliable")
	}
}
