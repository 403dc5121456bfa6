// Network: two-terminal network reliability as Datalog query
// reliability — the problem that motivated Karp & Luby's Monte Carlo
// work, expressed in the paper's framework. Links of a small network
// fail independently; the query Reach(src, dst) is recursive Datalog
// (so Theorem 4.2's FP^#P bound applies, as de Rougemont proved for
// Datalog), and its reliability is the probability that the observed
// connectivity verdict survives the failures.
//
//	go run ./examples/network
package main

import (
	"context"
	"fmt"
	"log"
	"math/big"

	"qrel/internal/datalog"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

const program = `
% two-terminal reachability
Reach(x,y) :- Link(x,y).
Reach(x,z) :- Reach(x,y), Link(y,z).
`

func main() {
	// A 6-node network: a ring 0-1-2-3-4-5 plus two chords.
	links := [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, // ring
		{1, 4}, {2, 5}, // chords
	}
	voc := rel.MustVocabulary(rel.RelSym{Name: "Link", Arity: 2})
	s := rel.MustStructure(6, voc)
	db := unreliable.New(s)
	failure := big.NewRat(1, 10) // every link fails with probability 1/10
	for _, l := range links {
		s.MustAdd("Link", l[0], l[1])
		s.MustAdd("Link", l[1], l[0])
		db.MustSetError(rel.GroundAtom{Rel: "Link", Args: rel.Tuple{l[0], l[1]}}, failure)
		db.MustSetError(rel.GroundAtom{Rel: "Link", Args: rel.Tuple{l[1], l[0]}}, failure)
	}
	prog := datalog.MustParse(program)
	ctx := context.Background()

	fmt.Printf("network: 6 nodes, %d undirected links, each direction failing with prob %s\n",
		len(links), failure.RatString())
	fmt.Printf("program:\n%s\n", prog)

	// Exact two-terminal reliability for a few terminal pairs.
	fmt.Println("two-terminal reliability (exact, world enumeration over 2^16 worlds):")
	for _, pair := range [][2]int{{0, 3}, {1, 5}, {2, 4}} {
		q := datalog.Atom{Pred: "Reach", Args: []datalog.Term{datalog.E(pair[0]), datalog.E(pair[1])}}
		res, err := datalog.Reliability(ctx, db, prog, q, 16)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  Reach(%d,%d): R = %s (= %.6f)\n", pair[0], pair[1], res.R.RatString(), res.RFloat)
	}

	// All-targets reliability from node 0 (unary pattern).
	q := datalog.Atom{Pred: "Reach", Args: []datalog.Term{datalog.E(0), datalog.V("x")}}
	res, err := datalog.Reliability(ctx, db, prog, q, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nall-targets from node 0: H = %s expected flipped answers, R = %.6f\n",
		res.H.RatString(), res.RFloat)

	// Monte Carlo at scale: crank the failure probability and compare.
	est, err := datalog.ReliabilityMC(ctx, db, prog, q, 0.01, 0.01, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Monte Carlo cross-check (±0.01): R ≈ %.6f with %d sampled worlds\n",
		est.RFloat, est.Samples)
}
