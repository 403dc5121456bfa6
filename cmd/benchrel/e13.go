package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"time"

	"qrel/internal/core"
	"qrel/internal/logic"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
	"qrel/internal/workload"
)

// runE13 probes the dimension the paper deliberately holds fixed:
// expression complexity. The data complexity of the Proposition 3.1
// algorithm is polynomial, but its cost is exponential in the number of
// atoms n(ψ) of the query (the 2^n(ψ) assignment enumeration) — which
// is fine, says the paper, because "queries are usually given by small
// expressions, whereas the size of the databases may be huge". The
// table fixes the database and grows the query's atom count, exposing
// the 2^n(ψ) factor; the data sweep at fixed query reconfirms the
// polynomial shape in n.
func runE13(cfg config, out *report) error {
	// Every edge atom is uncertain: the engine enumerates only the
	// flips of a tuple's uncertain atoms (certain ones cost nothing), so
	// this is the database on which a tuple pays for all n(psi) of them.
	// Empty observed relations make the observed value false for every
	// tuple uniformly.
	const universe = 18
	rng := rand.New(rand.NewSource(cfg.seed))
	db := unreliable.New(workload.RandomStructure(rng, universe, 0, 0))
	for x := 0; x < universe; x++ {
		for y := 0; y < universe; y++ {
			db.MustSetError(rel.GroundAtom{Rel: "E", Args: rel.Tuple{x, y}}, big.NewRat(int64(1+rng.Intn(9)), 10))
		}
	}

	out.row("axis", "size", "time", "x prev")
	// Expression sweep: m DISTINCT ground atoms per tuple — E(x,#0),
	// E(x,#1), ... — so n(psi) = m and the per-tuple cost is 2^m
	// assignments, evaluated 64 per pass: the sweep starts where the
	// passes, not the per-tuple set-up, are the cost.
	var prev, first, last time.Duration
	sizes := []int{10, 12, 14, 16, 18}
	if cfg.quick {
		sizes = []int{10, 12, 14, 16}
	}
	for _, m := range sizes {
		parts := make([]string, m)
		for i := range parts {
			parts[i] = fmt.Sprintf("E(x,%d)", i)
		}
		src := strings.Join(parts, " | ")
		f := logic.MustParse(src, nil)
		// Best of three: single-shot timings at the microsecond scale are
		// too noisy for ratio checks.
		var dt time.Duration
		for rep := 0; rep < 3; rep++ {
			d, err := timeIt(func() error {
				_, err := core.QuantifierFree(cfg.ctx, db, f, core.Options{})
				return err
			})
			if err != nil {
				return err
			}
			if rep == 0 || d < dt {
				dt = d
			}
		}
		ratio := "-"
		if prev > 0 {
			ratio = fmt.Sprintf("%.1f", float64(dt)/float64(maxDuration(prev, time.Microsecond)))
		}
		out.row("query-atoms", m, dt, ratio)
		prev = dt
		if first == 0 {
			first = dt
		}
		last = dt
	}
	// Theory: 2^(m_last − m_first) = 256x (64x in quick mode) over the
	// sweep; individual +2 steps are noisy at the millisecond scale, so
	// check total growth with generous slack.
	totalGrowth := float64(last) / float64(maxDuration(first, time.Microsecond))
	wantGrowth := 64.0
	if cfg.quick {
		wantGrowth = 16
	}
	out.check("cost grows exponentially in n(psi) over the sweep", totalGrowth >= wantGrowth)

	// Data sweep at fixed small query: polynomial in n.
	f := logic.MustParse("S(x) | E(x,x)", nil)
	var times []time.Duration
	ns := []int{16, 64, 256}
	if cfg.quick {
		ns = []int{16, 64}
	}
	for _, n := range ns {
		rngN := rand.New(rand.NewSource(cfg.seed + int64(n)))
		dbN := workload.AddUncertainty(rngN, workload.RandomStructure(rngN, n, 0.2, 0.5), n/2, 10)
		dt, err := timeIt(func() error {
			_, err := core.QuantifierFree(cfg.ctx, dbN, f, core.Options{})
			return err
		})
		if err != nil {
			return err
		}
		times = append(times, dt)
		out.row("data", n, dt, "-")
	}
	nRatio := float64(ns[len(ns)-1]) / float64(ns[0])
	growth := float64(times[len(times)-1]) / float64(maxDuration(times[0], time.Microsecond))
	out.check("data complexity stays polynomial while expression complexity is exponential",
		growth < 64*nRatio*nRatio)
	return nil
}
