package main

import (
	"fmt"
	"math/rand"
	"time"

	"qrel/internal/core"
	"qrel/internal/logic"
	"qrel/internal/reductions"
	"qrel/internal/workload"
)

// runE7 reproduces the absolute-reliability results of Section 5:
// Lemma 5.7 (AR of quantifier-free queries decided in polynomial time —
// timed sweep) and Lemma 5.9 (for the fixed existential query of the
// 4-colourability reduction, D ∉ AR_psi iff the graph is 4-colourable —
// verified instance by instance against a backtracking solver, with the
// witness world decoded into an explicit proper colouring).
func runE7(cfg config, out *report) error {
	// Lemma 5.9 equivalence.
	out.row("graph", "n", "edges", "4-colourable", "D in AR", "agree", "time")
	rng := rand.New(rand.NewSource(cfg.seed))
	sizes := []int{3, 4, 5, 6}
	if cfg.quick {
		sizes = []int{3, 4, 5}
	}
	allAgree := true
	sawColorable, sawUncolorable := false, false
	for i, n := range sizes {
		var g *reductions.Graph
		if i == len(sizes)-1 {
			// Force a non-4-colourable instance: K5 plus isolated vertices.
			g = reductions.NewGraph(n)
			for u := 0; u < 5 && u < n; u++ {
				for v := u + 1; v < 5 && v < n; v++ {
					g.MustAddEdge(u, v)
				}
			}
		} else {
			g = reductions.RandomGraph(rng, n, 0.5)
			if g.NumEdges() == 0 {
				g.MustAddEdge(0, 1)
			}
		}
		inst, err := reductions.BuildFourColInstance(g)
		if err != nil {
			return err
		}
		var res core.AbsoluteResult
		dt, err := out.timed(fmt.Sprintf("fourcol/G%d", i), func() (int, error) {
			var err error
			res, err = core.AbsoluteReliability(cfg.ctx, inst.DB, inst.Query, core.Options{MaxEnumAtoms: 12})
			return 0, err
		})
		if err != nil {
			return err
		}
		_, colorable := g.KColoring(4)
		agree := colorable != res.Reliable
		if colorable {
			sawColorable = true
			colors := reductions.ColoringFromWorld(res.Witness)
			agree = agree && g.IsProperColoring(colors)
		} else {
			sawUncolorable = true
		}
		allAgree = allAgree && agree
		out.row(fmt.Sprint("G", i), n, g.NumEdges(), colorable, res.Reliable, agree, dt)
	}
	out.check("Lemma 5.9: not-AR iff 4-colourable, witness decodes to a proper colouring", allAgree)
	out.check("both 4-colourable and non-colourable instances exercised", sawColorable && sawUncolorable)

	// Lemma 5.7: quantifier-free AR scales polynomially.
	qf := logic.MustParse("S(x) & !E(x,x)", nil)
	qfSizes := []int{16, 32, 64, 128}
	if cfg.quick {
		qfSizes = []int{16, 32, 64}
	}
	var times []time.Duration
	for _, n := range qfSizes {
		rngN := rand.New(rand.NewSource(cfg.seed + int64(n)))
		db := workload.AddUncertainty(rngN, workload.RandomStructure(rngN, n, 0.2, 0.5), n, 10)
		dt, err := out.timed(fmt.Sprintf("qfree/n=%d", n), func() (int, error) {
			_, err := core.AbsoluteReliability(cfg.ctx, db, qf, core.Options{})
			return 0, err
		})
		if err != nil {
			return err
		}
		times = append(times, dt)
		out.row("qfree-AR", n, "-", "-", "-", "-", dt)
	}
	nRatio := float64(qfSizes[len(qfSizes)-1]) / float64(qfSizes[0])
	growth := float64(times[len(times)-1]) / float64(max(times[0], time.Microsecond))
	out.check("Lemma 5.7: quantifier-free AR decided in polynomial time", growth < 64*nRatio*nRatio)
	return nil
}
