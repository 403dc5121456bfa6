package main

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"

	"qrel/internal/core"
	"qrel/internal/logic"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
	"qrel/internal/workload"
)

// runE6 reproduces Theorem 5.4 and Corollary 5.5: the probability of an
// existential query has an FPTRAS via its lineage kDNF, and the
// reliability of existential/universal queries is approximable with
// absolute error. The table sweeps the universe size for a conjunctive
// and a universal query, comparing the exact lineage-BDD reliability
// against the Karp–Luby estimate with per-tuple (ε/n^k, δ/n^k)
// splitting, and against exact world enumeration where feasible.
func runE6(cfg config, out *report) error {
	queries := []struct {
		name string
		src  string
	}{
		{"conjunctive", "exists x y . E(x,y) & S(x) & S(y)"},
		{"universal", "forall x y . E(x,y) -> S(y)"},
		{"unary", "exists y . E(x,y) & S(y)"},
	}
	sizes := []int{4, 8, 16}
	if cfg.quick {
		sizes = []int{4, 8}
	}
	const eps, delta = 0.1, 0.05
	out.row("query", "n", "uncertain", "R exact", "R approx", "abs err", "ok", "samples", "t_bdd", "t_kl")
	failures, rows := 0, 0
	agreeEnum := true
	for _, q := range queries {
		f := logic.MustParse(q.src, nil)
		for _, n := range sizes {
			rng := rand.New(rand.NewSource(cfg.seed + int64(n)))
			db := e6DB(rng, n)
			var exact core.Result
			tBDD, err := out.timed(fmt.Sprintf("lineage-bdd/%s/n=%d", q.name, n), func() (int, error) {
				var err error
				exact, err = core.LineageBDD(cfg.ctx, db, f, core.Options{})
				return 0, err
			})
			if err != nil {
				return err
			}
			if db.NumUncertain() <= 14 {
				enum, err := core.WorldEnum(cfg.ctx, db, f, core.Options{})
				if err != nil {
					return err
				}
				agreeEnum = agreeEnum && exact.H.Cmp(enum.H) == 0
			}
			var approx core.Result
			tKL, err := out.timed(fmt.Sprintf("lineage-kl/%s/n=%d", q.name, n), func() (int, error) {
				var err error
				approx, err = core.LineageKL(cfg.ctx, db, f, core.Options{Eps: eps, Delta: delta, Seed: cfg.seed}, false)
				return approx.Samples, err
			})
			if err != nil {
				return err
			}
			absErr := math.Abs(approx.RFloat - exact.RFloat)
			ok := absErr <= eps
			rows++
			if !ok {
				failures++
			}
			out.row(q.name, n, db.NumUncertain(), exact.RFloat, approx.RFloat, absErr, ok, approx.Samples, tBDD, tKL)
		}
	}
	out.check("lineage BDD agrees with world enumeration wherever both run", agreeEnum)
	out.check("Karp–Luby reliability within eps of exact at the promised rate", failures*10 <= 3*rows)
	return nil
}

// e6DB builds a sparse structure whose uncertainty sits on atoms that
// actually appear in the test queries' lineages: S labels of edge
// endpoints and a few edges themselves, so query truth varies across
// worlds instead of being saturated.
func e6DB(rng *rand.Rand, n int) *unreliable.DB {
	s := rel.MustStructure(n, workload.GraphVoc())
	type edge struct{ u, v int }
	var edges []edge
	for i := 0; i < n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		s.MustAdd("E", u, v)
		edges = append(edges, edge{u, v})
	}
	db := unreliable.New(s)
	for _, e := range edges {
		if rng.Intn(2) == 0 {
			s.MustAdd("S", e.u)
		}
		db.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{e.u}}, big.NewRat(1, 4))
		if rng.Intn(3) == 0 {
			db.MustSetError(rel.GroundAtom{Rel: "E", Args: rel.Tuple{e.u, e.v}}, big.NewRat(1, 6))
		}
	}
	return db
}
