// Quickstart: build a small unreliable database, ask for the
// reliability of queries from each fragment of the paper, and print the
// engine and guarantee each one gets.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math/big"

	"qrel"
)

func main() {
	// A tiny social graph: Follows/2 and Verified/1 over 5 accounts.
	voc := qrel.MustVocabulary(
		qrel.RelSym{Name: "Follows", Arity: 2},
		qrel.RelSym{Name: "Verified", Arity: 1},
	)
	s := qrel.MustStructure(5, voc)
	s.MustAdd("Follows", 0, 1)
	s.MustAdd("Follows", 1, 2)
	s.MustAdd("Follows", 2, 0)
	s.MustAdd("Follows", 3, 4)
	s.MustAdd("Verified", 0)
	s.MustAdd("Verified", 3)

	// The crawler that produced the data is unreliable: some facts may
	// be wrong, each with its own error probability.
	db := qrel.NewDB(s)
	check(db.SetError(qrel.GroundAtom{Rel: "Follows", Args: qrel.Tuple{1, 2}}, big.NewRat(1, 10)))
	check(db.SetError(qrel.GroundAtom{Rel: "Follows", Args: qrel.Tuple{2, 3}}, big.NewRat(1, 5))) // absent, maybe missed
	check(db.SetError(qrel.GroundAtom{Rel: "Verified", Args: qrel.Tuple{3}}, big.NewRat(1, 4)))

	fmt.Printf("observed database: %d accounts, %d facts, %d uncertain atoms\n\n",
		db.A.N, db.A.FactCount(), db.NumUncertain())

	queries := []string{
		// quantifier-free (Proposition 3.1: exact, polynomial).
		"Verified(x) & !Follows(x,x)",
		// conjunctive (Theorem 5.4 territory).
		"exists x y . Follows(x,y) & Verified(x) & Verified(y)",
		// universal.
		"forall x . Verified(x) -> exists y . Follows(x,y)",
	}
	for _, src := range queries {
		q, err := qrel.ParseQuery(src, voc)
		if err != nil {
			log.Fatal(err)
		}
		res, err := qrel.Reliability(context.Background(), db, q, qrel.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query: %s\n", src)
		fmt.Printf("  class %v, engine %s, guarantee %v\n", qrel.Classify(q), res.Engine, res.Guarantee)
		if res.Guarantee == qrel.Exact {
			fmt.Printf("  H = %s, R = %s (= %.4f)\n\n", res.H.RatString(), res.R.RatString(), res.RFloat)
		} else {
			fmt.Printf("  H ≈ %.4f, R ≈ %.4f (±%.2g at %.0f%% confidence)\n\n",
				res.HFloat, res.RFloat, res.Eps, 100*(1-res.Delta))
		}
	}

	// Which answer tuples of a unary query are shaky?
	q := qrel.MustParseQuery("exists y . Follows(x,y)", voc)
	per, err := qrel.ExpectedErrorPerTuple(context.Background(), db, q, qrel.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("per-account risk for 'follows someone':")
	for _, te := range per {
		mark := " "
		if te.Observed {
			mark = "*"
		}
		fmt.Printf("  %s account %v: Pr[answer flips] = %s\n", mark, te.Tuple, te.H.RatString())
	}
	fmt.Println("  (* = in the observed answer)")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
