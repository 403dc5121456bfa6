package main

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"

	"qrel/internal/datalog"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// runE11 exercises the Datalog extension (Section 4 covers Datalog
// queries explicitly — de Rougemont had proved the FP^#P bound for
// them): two-terminal network reliability with independent link
// failures. The exact engine (world enumeration) is cross-checked
// against an independent inclusion-free computation on
// series-parallel cases with known closed forms, and the Monte Carlo
// estimator must stay inside its absolute-error bound.
func runE11(cfg config, out *report) error {
	prog := datalog.MustParse(`
Reach(x,y) :- Link(x,y).
Reach(x,z) :- Reach(x,y), Link(y,z).
`)
	out.row("topology", "links", "uncertain", "R exact", "closed form", "agree", "time")

	// Closed-form cases: a k-link series chain 0→1→...→k with failure
	// probability f per link has Pr[Reach(0,k)] = (1-f)^k; the observed
	// database is connected, so R = (1-f)^k.
	f := big.NewRat(1, 5)
	oneMinusF := new(big.Rat).Sub(big.NewRat(1, 1), f)
	allAgree := true
	for _, k := range []int{2, 4, 8} {
		var chain [][2]int
		for i := 0; i < k; i++ {
			chain = append(chain, [2]int{i, i + 1})
		}
		db := linksDB(k+1, chain, f)
		q := datalog.Atom{Pred: "Reach", Args: []datalog.Term{datalog.E(0), datalog.E(k)}}
		var res datalog.Result
		dt, err := out.timed(fmt.Sprintf("exact/series-%d", k), func() (int, error) {
			var err error
			res, err = datalog.Reliability(cfg.ctx, db, prog, q, 16)
			return 0, err
		})
		if err != nil {
			return err
		}
		want := big.NewRat(1, 1)
		for i := 0; i < k; i++ {
			want.Mul(want, oneMinusF)
		}
		agree := res.R.Cmp(want) == 0
		allAgree = allAgree && agree
		wf, _ := want.Float64()
		out.row(fmt.Sprint("series-", k), k, db.NumUncertain(), res.RFloat, wf, agree, dt)
	}
	// Parallel: two disjoint 2-hop routes 0→a→3; Pr[connected] =
	// 1 − (1 − (1-f)²)².
	db := linksDB(4, [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}}, f)
	q := datalog.Atom{Pred: "Reach", Args: []datalog.Term{datalog.E(0), datalog.E(3)}}
	res, err := datalog.Reliability(cfg.ctx, db, prog, q, 16)
	if err != nil {
		return err
	}
	route := new(big.Rat).Mul(oneMinusF, oneMinusF)
	fail := new(big.Rat).Sub(big.NewRat(1, 1), route)
	fail.Mul(fail, fail)
	want := new(big.Rat).Sub(big.NewRat(1, 1), fail)
	agree := res.R.Cmp(want) == 0
	allAgree = allAgree && agree
	wf, _ := want.Float64()
	out.row("parallel-2x2", 4, db.NumUncertain(), res.RFloat, wf, agree, "-")
	out.check("exact Datalog reliability matches series/parallel closed forms", allAgree)

	// Monte Carlo on a random mesh against the exact engine.
	rng := rand.New(rand.NewSource(cfg.seed))
	mesh := meshDB(rng, 6, 7, f)
	qMesh := datalog.Atom{Pred: "Reach", Args: []datalog.Term{datalog.V("x"), datalog.E(0)}}
	exact, err := datalog.Reliability(cfg.ctx, mesh, prog, qMesh, 16)
	if err != nil {
		return err
	}
	est, err := datalog.ReliabilityMC(cfg.ctx, mesh, prog, qMesh, 0.02, 0.02, cfg.seed)
	if err != nil {
		return err
	}
	absErr := math.Abs(est.RFloat - exact.RFloat)
	out.row("mesh-MC", 7, mesh.NumUncertain(), est.RFloat, exact.RFloat, absErr <= 0.02, est.Samples)
	out.check("Datalog Monte Carlo within its absolute-error bound", absErr <= 0.02)
	return nil
}

func linkVoc() *rel.Vocabulary {
	return rel.MustVocabulary(rel.RelSym{Name: "Link", Arity: 2})
}

// linksDB builds the network over n nodes with the given directed
// links, each failing with probability f.
func linksDB(n int, links [][2]int, f *big.Rat) *unreliable.DB {
	s := rel.MustStructure(n, linkVoc())
	db := unreliable.New(s)
	for _, l := range links {
		s.MustAdd("Link", l[0], l[1])
		db.MustSetError(rel.GroundAtom{Rel: "Link", Args: rel.Tuple{l[0], l[1]}}, f)
	}
	return db
}

// meshDB builds a random connected-ish mesh with `links` uncertain
// directed links.
func meshDB(rng *rand.Rand, n, links int, f *big.Rat) *unreliable.DB {
	s := rel.MustStructure(n, linkVoc())
	db := unreliable.New(s)
	for db.NumUncertain() < links {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		// Mix failure modes: mostly present links that may vanish, plus
		// some absent links that may spuriously appear (both directions
		// of the paper's Wrong(Rā) events).
		if db.NumUncertain()%3 != 2 {
			s.MustAdd("Link", u, v)
		}
		db.MustSetError(rel.GroundAtom{Rel: "Link", Args: rel.Tuple{u, v}}, f)
	}
	return db
}
