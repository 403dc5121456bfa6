package main

import (
	"fmt"
	"math/big"
	"math/rand"

	"qrel/internal/core"
	"qrel/internal/logic"
	"qrel/internal/rel"
	"qrel/internal/safeplan"
	"qrel/internal/unreliable"
	"qrel/internal/workload"
)

// runE12 exercises the Dalvi–Suciu safe-plan extension: hierarchical
// conjunctive queries without self-joins are evaluated exactly in
// polynomial time, agreeing with the intensional engines wherever both
// run and scaling to databases far beyond enumeration; non-hierarchical
// queries — the boundary where Proposition 3.2's #P-hardness begins —
// are provably rejected.
func runE12(cfg config, out *report) error {
	out.row("query", "n", "uncertain", "engine", "R", "agree/ok", "time")
	queries := []string{
		"exists x . S(x)",
		"exists x y . S(x) & E(x,y)",
	}
	sizes := []int{8, 32, 128}
	if cfg.quick {
		sizes = []int{8, 32}
	}
	allAgree := true
	for qi, src := range queries {
		f := logic.MustParse(src, nil)
		for _, n := range sizes {
			rng := rand.New(rand.NewSource(cfg.seed + int64(n)))
			db := e12DB(rng, n)
			var sp core.Result
			dt, err := out.timed(fmt.Sprintf("safe-plan/q%d/n=%d", qi+1, n), func() (int, error) {
				var err error
				sp, err = core.SafePlan(cfg.ctx, db, f, core.Options{})
				return 0, err
			})
			if err != nil {
				return err
			}
			// e12DB has at most 12 uncertain atoms: enumerate its worlds.
			ref, err := core.WorldEnum(cfg.ctx, db, f, core.Options{})
			if err != nil {
				return err
			}
			agree := sp.H.Cmp(ref.H) == 0
			allAgree = allAgree && agree
			out.row(src, n, db.NumUncertain(), sp.Engine, sp.RFloat, agree, dt)
		}
	}
	// Scale: a cycle of n labelled nodes, 2n uncertain atoms, still
	// exact; the lineage BDD beside it while it stays small.
	f := logic.MustParse("exists x y . S(x) & E(x,y)", nil)
	cycles := []int{32, 128, 512}
	if cfg.quick {
		cycles = cycles[:2]
	}
	var sp, ref core.Result
	for _, n := range cycles {
		s := rel.MustStructure(n, workload.GraphVoc())
		db := unreliable.New(s)
		for i := 0; i < n; i++ {
			s.MustAdd("S", i)
			db.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{i}}, big.NewRat(1, 3))
			s.MustAdd("E", i, (i+1)%n)
			db.MustSetError(rel.GroundAtom{Rel: "E", Args: rel.Tuple{i, (i + 1) % n}}, big.NewRat(1, 4))
		}
		dt, err := out.timed(fmt.Sprintf("safe-plan/cycle/n=%d", n), func() (int, error) {
			var err error
			sp, err = core.SafePlan(cfg.ctx, db, f, core.Options{})
			return 0, err
		})
		if err != nil {
			return err
		}
		out.row("cycle", n, db.NumUncertain(), sp.Engine, sp.RFloat, "-", dt)
		if n > 128 {
			continue
		}
		if dt, err = out.timed(fmt.Sprintf("lineage-bdd/cycle/n=%d", n), func() (int, error) {
			var err error
			ref, err = core.LineageBDD(cfg.ctx, db, f, core.Options{})
			return 0, err
		}); err != nil {
			return err
		}
		allAgree = allAgree && sp.H.Cmp(ref.H) == 0
		out.row("cycle", n, db.NumUncertain(), ref.Engine, ref.RFloat, sp.H.Cmp(ref.H) == 0, dt)
	}
	out.check("safe plan agrees exactly with the intensional engines", allAgree)
	out.check("safe plan handles thousands of uncertain atoms exactly", sp.H != nil)

	// Boundary: H0 is rejected with ErrNotHierarchical.
	h0, err := safeplan.FromFormula(logic.MustParse("exists x y . S(x) & E(x,y) & T(y)", nil))
	if err != nil {
		return err
	}
	out.check("H0 detected as non-hierarchical (the hardness boundary)", !h0.IsHierarchical())
	return nil
}

// e12DB builds a database that is uncertain where it matters: no
// certain facts at all, a handful of maybe-present S labels and E edges
// touching them, so the query probability is genuinely in (0, 1).
func e12DB(rng *rand.Rand, n int) *unreliable.DB {
	s := rel.MustStructure(n, workload.GraphVoc())
	db := unreliable.New(s)
	for i := 0; i < 6; i++ {
		v := rng.Intn(n)
		db.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{v}}, big.NewRat(int64(1+rng.Intn(3)), 5))
		db.MustSetError(rel.GroundAtom{Rel: "E", Args: rel.Tuple{v, rng.Intn(n)}}, big.NewRat(1, 3))
	}
	return db
}
