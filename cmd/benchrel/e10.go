package main

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"

	"qrel/internal/bdd"
	"qrel/internal/core"
	"qrel/internal/karpluby"
	"qrel/internal/logic"
	"qrel/internal/mc"
	"qrel/internal/prop"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
	"qrel/internal/workload"
)

// runE10 runs the design-choice ablations called out in DESIGN.md:
//
//  1. direct weighted Karp–Luby versus the paper's Theorem 5.3
//     binary-encoding route for Prob-kDNF (same guarantee, different
//     constant factors and instance blowup);
//  2. Corollary 5.5 per-tuple splitting versus direct Hamming-distance
//     sampling for a unary query (sample counts differ by orders of
//     magnitude);
//  3. exact Prob-DNF via BDD versus brute-force enumeration as the
//     lineage grows.
func runE10(cfg config, out *report) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	stream := mc.Stream{Src: mc.NewSource(cfg.seed)}

	// Ablation 1: weighted KL vs Theorem 5.3 route.
	out.row("ablation", "variant", "value", "exact", "rel err", "samples", "time")
	d := workload.RandomKDNF(rng, 6, 4, 2)
	p := workload.RandomProbs(rng, 6, 8)
	exact, err := d.ProbBruteForce(p, 12)
	if err != nil {
		return err
	}
	exactF, _ := exact.Float64()
	var direct, viaRed karpluby.CountResult
	from := *stream.Src
	tDirect, err := out.timed("prob-weighted-kl", func() (int, error) {
		*stream.Src = from // each call draws what the first one drew
		var err error
		direct, err = karpluby.ProbDNF(cfg.ctx, d, p, 0.1, 0.05, karpluby.ProbBatched, stream)
		return direct.Samples, err
	})
	if err != nil {
		return err
	}
	from = *stream.Src
	tRed, err := out.timed("prob-thm53-route", func() (int, error) {
		*stream.Src = from
		var err error
		viaRed, err = karpluby.ProbViaReduction(cfg.ctx, d, p, 0.1, 0.05, karpluby.CountBatched, stream)
		return viaRed.Samples, err
	})
	if err != nil {
		return err
	}
	dErr := relErr(direct.Float(), exactF)
	rErr := relErr(viaRed.Float(), exactF)
	out.row("prob-kdnf", "weighted-KL", direct.Float(), exactF, dErr, direct.Samples, tDirect)
	out.row("prob-kdnf", "thm53-route", viaRed.Float(), exactF, rErr, viaRed.Samples, tRed)
	out.check("both Prob-kDNF routes land near the exact value", dErr < 0.5 && rErr < 1.0)

	// Ablation 2: Cor 5.5 per-tuple MC vs direct Hamming sampling.
	query := logic.MustParse("exists y . E(x,y) & S(y)", nil)
	db := workload.RandomUDB(rand.New(rand.NewSource(cfg.seed)), 6, 10)
	exactRel, err := core.LineageBDD(cfg.ctx, db, query, core.Options{})
	if err != nil {
		return err
	}
	perTuple, err := core.MonteCarlo(cfg.ctx, db, query, core.Options{Eps: 0.1, Delta: 0.1, Seed: cfg.seed})
	if err != nil {
		return err
	}
	directMC, err := core.MonteCarloDirect(cfg.ctx, db, query, core.Options{Eps: 0.1, Delta: 0.1, Seed: cfg.seed})
	if err != nil {
		return err
	}
	out.row("k-ary-mc", "per-tuple(Cor5.5)", perTuple.RFloat, exactRel.RFloat,
		math.Abs(perTuple.RFloat-exactRel.RFloat), perTuple.Samples, "-")
	out.row("k-ary-mc", "direct-hamming", directMC.RFloat, exactRel.RFloat,
		math.Abs(directMC.RFloat-exactRel.RFloat), directMC.Samples, "-")
	out.check("both MC variants within eps of exact", math.Abs(perTuple.RFloat-exactRel.RFloat) <= 0.1 &&
		math.Abs(directMC.RFloat-exactRel.RFloat) <= 0.1)
	out.check("direct Hamming sampling needs far fewer samples", directMC.Samples*10 < perTuple.Samples)

	// Ablation 3: BDD vs brute force on growing lineages.
	sizes := []int{8, 12, 16, 20}
	if cfg.quick {
		sizes = []int{8, 12}
	}
	bddAlwaysRight := true
	for _, nv := range sizes {
		dl := workload.RandomKDNF(rng, nv, nv, 3)
		pl := workload.RandomProbs(rng, nv, 10)
		var viaBDD, viaBF *big.Rat
		tBDD, err := out.timed(fmt.Sprintf("exact-bdd/vars=%d", nv), func() (int, error) {
			var err error
			viaBDD, err = probViaBDD(dl, pl)
			return 0, err
		})
		if err != nil {
			return err
		}
		tBF, err := out.timed(fmt.Sprintf("exact-bruteforce/vars=%d", nv), func() (int, error) {
			var err error
			viaBF, err = dl.ProbBruteForce(pl, 24)
			return 0, err
		})
		if err != nil {
			return err
		}
		same := viaBDD.Cmp(viaBF) == 0
		bddAlwaysRight = bddAlwaysRight && same
		f, _ := viaBDD.Float64()
		out.row("exact-prob", fmt.Sprint(nv, "vars"), f, "-", same, tBDD, tBF)
	}
	out.check("BDD and brute-force exact probabilities identical", bddAlwaysRight)
	return runE10Extra(cfg, out)
}

func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / want
}

// probViaBDD computes exact Prob-DNF through the BDD engine.
func probViaBDD(d prop.DNF, p prop.ProbAssignment) (*big.Rat, error) {
	mgr := bdd.New(d.NumVars, 0)
	root, err := mgr.FromDNF(d)
	if err != nil {
		return nil, err
	}
	return mgr.Prob(root, p)
}

// runE10Extra holds the ablations added with the planned Karp–Luby
// sample size and the BDD variable order; called from runE10.
func runE10Extra(cfg config, out *report) error {
	// Ablation 4: Lemma 5.11's worst case p = 1/m vs the planned t, from
	// a coverage lower bound proved before the first draw, on a
	// high-coverage (near-disjoint) formula.
	nv := 24
	d := prop.DNF{NumVars: nv}
	for i := 0; i+1 < nv; i += 2 {
		d.Terms = append(d.Terms, prop.Term{prop.Pos(i), prop.Pos(i + 1)})
	}
	exact, err := probViaBDD(d, prop.UniformProb(nv))
	if err != nil {
		return err
	}
	exactCount := new(big.Rat).Mul(exact, new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(nv))))
	exactF, _ := exactCount.Float64()
	planned, err := karpluby.PlanCount(d, 0.1, 0.05, karpluby.CountBatched)
	if err != nil {
		return err
	}
	worstCase := planned
	if worstCase.Samples, err = karpluby.SampleSize(0.1, 0.05, len(d.Terms)); err != nil {
		return err
	}
	worst, err := worstCase.Run(cfg.ctx, mc.Stream{Src: mc.NewSource(cfg.seed + 1)})
	if err != nil {
		return err
	}
	plan, err := planned.Run(cfg.ctx, mc.Stream{Src: mc.NewSource(cfg.seed + 1)})
	if err != nil {
		return err
	}
	out.row("kl-sample-size", "lemma5.11(1/m)", worst.Float(), exactF, relErr(worst.Float(), exactF), worst.Samples, "-")
	out.row("kl-sample-size", "planned", plan.Float(), exactF, relErr(plan.Float(), exactF), plan.Samples, "-")
	out.check("the planned t is a fraction of the worst case on high-coverage input, both within eps",
		plan.Samples*2 < worst.Samples &&
			relErr(worst.Float(), exactF) <= 0.1 && relErr(plan.Float(), exactF) <= 0.1)

	// Ablation 4b: rare-event conditioning for small error probabilities.
	// All mus at 1/100: the flip event has Z ≈ 0.1, so the conditional
	// estimator needs ~Z² of the plain sample count at equal accuracy.
	rareDB := func() *unreliable.DB {
		s := rel.MustStructure(5, workload.GraphVoc())
		dbr := unreliable.New(s)
		// A single witness E(0,1) ∧ S(0): the query's truth hangs on two
		// fragile facts, so R < 1 and the flip event is what matters.
		s.MustAdd("S", 0)
		dbr.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{0}}, big.NewRat(1, 100))
		for i := 0; i < 5; i++ {
			s.MustAdd("E", i, (i+1)%5)
			dbr.MustSetError(rel.GroundAtom{Rel: "E", Args: rel.Tuple{i, (i + 1) % 5}}, big.NewRat(1, 100))
		}
		return dbr
	}()
	rq := logic.MustParse("exists x y . E(x,y) & S(x)", nil)
	exactRare, err := core.WorldEnum(cfg.ctx, rareDB, rq, core.Options{MaxEnumAtoms: 16})
	if err != nil {
		return err
	}
	rare, err := core.MonteCarloRare(cfg.ctx, rareDB, rq, core.Options{Eps: 0.005, Delta: 0.05, Seed: cfg.seed})
	if err != nil {
		return err
	}
	plainMC, err := core.MonteCarloDirect(cfg.ctx, rareDB, rq, core.Options{Eps: 0.005, Delta: 0.05, Seed: cfg.seed})
	if err != nil {
		return err
	}
	out.row("rare-event", "plain-MC", plainMC.RFloat, exactRare.RFloat,
		math.Abs(plainMC.RFloat-exactRare.RFloat), plainMC.Samples, "-")
	out.row("rare-event", "conditioned", rare.RFloat, exactRare.RFloat,
		math.Abs(rare.RFloat-exactRare.RFloat), rare.Samples, "-")
	out.check("rare-event conditioning cuts samples by ~Z^2 at equal accuracy",
		rare.Samples*20 < plainMC.Samples && math.Abs(rare.RFloat-exactRare.RFloat) <= 0.005)

	// Ablation 5: BDD variable order on the classic interleaved-pairs
	// function ⋁_i (x_i ∧ x_{i+m}): pairing variables far apart makes
	// the indexing order exponential, while the order the manager
	// chooses from the DNF keeps each term's variables adjacent and
	// stays linear. A manager first used through FromTerm keeps the
	// indexing order; one first used through FromDNF chooses its own.
	const m = 10
	shared := prop.DNF{NumVars: 2 * m}
	for i := 0; i < m; i++ {
		shared.Terms = append(shared.Terms, prop.Term{prop.Pos(i), prop.Pos(i + m)})
	}
	indexed := bdd.New(shared.NumVars, 0)
	indexedRoot := bdd.False
	for _, t := range shared.Terms {
		tn, err := indexed.FromTerm(t)
		if err != nil {
			return err
		}
		if indexedRoot, err = indexed.Or(indexedRoot, tn); err != nil {
			return err
		}
	}
	chosen := bdd.New(shared.NumVars, 0)
	chosenRoot, err := chosen.FromDNF(shared)
	if err != nil {
		return err
	}
	out.row("bdd-order", "indexing", indexed.Size(indexedRoot), "-", "-", "-", "-")
	out.row("bdd-order", "chosen", chosen.Size(chosenRoot), "-", "-", "-", "-")
	out.check("the chosen order is exponentially smaller on interleaved pairs, same model count",
		chosen.Size(chosenRoot)*8 < indexed.Size(indexedRoot) &&
			chosen.Count(chosenRoot).Cmp(indexed.Count(indexedRoot)) == 0)
	return nil
}
