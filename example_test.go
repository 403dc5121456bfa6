package qrel_test

import (
	"context"
	"fmt"
	"math/big"

	"qrel"
)

// ExampleReliability computes the exact reliability of a conjunctive
// query on a small unreliable database.
func ExampleReliability() {
	voc := qrel.MustVocabulary(
		qrel.RelSym{Name: "Follows", Arity: 2},
		qrel.RelSym{Name: "Verified", Arity: 1},
	)
	s := qrel.MustStructure(3, voc)
	s.MustAdd("Follows", 0, 1)
	s.MustAdd("Verified", 0)

	db := qrel.NewDB(s)
	db.MustSetError(qrel.GroundAtom{Rel: "Verified", Args: qrel.Tuple{0}}, big.NewRat(1, 10))

	q := qrel.MustParseQuery("exists x y . Follows(x,y) & Verified(x)", voc)
	res, err := qrel.Reliability(context.Background(), db, q, qrel.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("class:", qrel.Classify(q))
	fmt.Println("R =", res.R.RatString())
	// Output:
	// class: conjunctive
	// R = 9/10
}

// ExampleAbsoluteReliability decides whether any possible world can
// change the query answer (Definition 5.6).
func ExampleAbsoluteReliability() {
	voc := qrel.MustVocabulary(qrel.RelSym{Name: "S", Arity: 1})
	s := qrel.MustStructure(2, voc)
	s.MustAdd("S", 0)
	db := qrel.NewDB(s)
	db.MustSetError(qrel.GroundAtom{Rel: "S", Args: qrel.Tuple{1}}, big.NewRat(1, 2))

	// The query only depends on S(0), which is certain.
	res, err := qrel.AbsoluteReliability(context.Background(), db, qrel.MustParseQuery("S(#0)", voc), qrel.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("absolutely reliable:", res.Reliable)
	// Output:
	// absolutely reliable: true
}

// ExampleExpectedErrorPerTuple produces a per-answer-tuple risk report.
func ExampleExpectedErrorPerTuple() {
	voc := qrel.MustVocabulary(qrel.RelSym{Name: "S", Arity: 1})
	s := qrel.MustStructure(2, voc)
	s.MustAdd("S", 0)
	s.MustAdd("S", 1)
	db := qrel.NewDB(s)
	db.MustSetError(qrel.GroundAtom{Rel: "S", Args: qrel.Tuple{1}}, big.NewRat(1, 4))

	per, err := qrel.ExpectedErrorPerTuple(context.Background(), db, qrel.MustParseQuery("S(x)", voc), qrel.Options{})
	if err != nil {
		panic(err)
	}
	for _, te := range per {
		fmt.Printf("%v: %s\n", te.Tuple, te.H.RatString())
	}
	// Output:
	// (0): 0
	// (1): 1/4
}
