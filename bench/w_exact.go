package main

import (
	"context"
	"math/big"
	"math/rand"
	"runtime"
	"time"

	"qrel"
	"qrel/internal/bdd"
	"qrel/internal/logic"
	"qrel/internal/prop"
)

// exactKind is one request of the exact-ladder rotation: a database, a
// query text, the reference reliability, and every exact engine that
// can answer it (for core.auto_vs_best_ratio). The first is the one
// the ladder picks today — the baseline of core.dispatch_overhead_us;
// the run does not fail if a later ladder picks another.
type exactKind struct {
	name    string
	db      *qrel.DB
	query   string
	want    *big.Rat
	engines []qrel.Engine
}

type exactInstance struct {
	seed  int64
	kinds []exactKind
}

func setupExact(e *env) (instance, error) {
	qf := qfreeDB(subRNG(e.seed, 0), e.sz.QFreeN)
	chain := chainDB(subRNG(e.seed, 1), e.sz.ChainN)
	path := existPathDB(subRNG(e.seed, 2), e.sz.ExistPath)
	hub := existHubDB(subRNG(e.seed, 3), e.sz.Hubs)
	cycle := cycleDB(subRNG(e.seed, 4), e.sz.CycleN)

	chainWant, err := engineOracle(qrel.EngineLineageBDD, chain, chainQuery)
	if err != nil {
		return nil, err
	}
	pathWant, err := engineOracle(qrel.EngineLineageBDD, path, existQuery)
	if err != nil {
		return nil, err
	}
	inst := &exactInstance{seed: e.seed, kinds: []exactKind{
		{"qfree", qf, qfreeQuery, qfreeOracle(qf), []qrel.Engine{qrel.EngineQFree}},
		{"safe-plan", chain, chainQuery, chainWant, []qrel.Engine{qrel.EngineSafePlan, qrel.EngineLineageBDD}},
		{"exist-small", path, existQuery, pathWant, []qrel.Engine{qrel.EngineWorldEnum, qrel.EngineLineageBDD}},
		{"exist-large", hub, existQuery, hubOracle(hub, e.sz.Hubs), []qrel.Engine{qrel.EngineLineageBDD}},
		{"fo-cycle", cycle, cycleQuery, cycleOracle(cycle), []qrel.Engine{qrel.EngineWorldEnum}},
	}}
	for _, k := range inst.kinds {
		if err := checkRange(k.name, k.want); err != nil {
			return nil, err
		}
	}
	if err := inst.rotation().warmUp(); err != nil {
		return nil, err
	}
	return inst, nil
}

func (in *exactInstance) rotation() rotation {
	ops := make([]op, len(in.kinds))
	for i, k := range in.kinds {
		ops[i] = op{name: k.name, run: func(c *call) error {
			id := c.begin("logic.Parse")
			q, err := qrel.ParseQuery(k.query, k.db.A.Voc)
			c.end(id)
			if err != nil {
				return err
			}
			id = c.begin("core.Reliability")
			res, err := qrel.Reliability(context.Background(), k.db, q, qrel.Options{})
			c.end(id)
			if err != nil {
				return err
			}
			c.abandoned += len(res.FallbackTrail)
			c.rec.count("core.engine."+res.Engine, 1)
			return checkExact(k.name, res.R, k.want)
		}}
	}
	// Sorted by cost: qfree ×2, exist-large ×2, then fo-cycle ×3 and
	// exist-small ×2 (near-equal world enumerations; p50 falls in their
	// fast side), safe-plan ×1 (p95 is its median).
	return newRotation(ops, 0,
		"qfree", "fo-cycle", "exist-large", "exist-small", "fo-cycle",
		"qfree", "safe-plan", "exist-large", "fo-cycle", "exist-small")
}

func (in *exactInstance) layers(rec *recorder, res *loopResult, _ time.Duration, m map[string]float64) error {
	queries := make([]string, len(in.kinds))
	for i, k := range in.kinds {
		queries[i] = k.query
	}
	if err := parseProbe(rec, in.kinds[0].db.A.Voc, queries, m); err != nil {
		return err
	}

	// logic.EvalSentence of the FO sentence on the observed world.
	cyc := in.kinds[4]
	fo, err := qrel.ParseQuery(cyc.query, cyc.db.A.Voc)
	if err != nil {
		return err
	}
	d, err := probe(rec, "logic.EvalSentence", 2000, func() error {
		_, err := logic.EvalSentence(cyc.db.A, fo)
		return err
	})
	if err != nil {
		return err
	}
	m["logic.eval_sentence_us"] = us(d)

	// (*DB).ForEachWorld over the 2^u worlds of the small existential instance.
	small := in.kinds[2].db
	worlds := 0
	d, err = probe(rec, "unreliable.ForEachWorld", 5, func() error {
		worlds = 0
		return small.ForEachWorld(small.NumUncertain(), func(*qrel.Structure, *big.Rat) bool {
			worlds++
			return true
		})
	})
	if err != nil {
		return err
	}
	m["unreliable.worlds_per_s"] = float64(worlds) / d.Seconds()

	// Every exact engine on every request it can answer: the reference
	// engine gives core.engine_ms.* and the dispatch overhead, the
	// cheapest gives auto_vs_best_ratio.
	var overheads []float64
	worst := 0.0
	for i, k := range in.kinds {
		q, err := qrel.ParseQuery(k.query, k.db.A.Voc)
		if err != nil {
			return err
		}
		auto := res.kindMedian(i, false)
		var best time.Duration
		for j, eng := range k.engines {
			d, got, err := engineProbe(rec, 5, eng, k.db, q, qrel.Options{})
			if err != nil {
				return err
			}
			if err := checkExact(k.name+"/"+string(eng), got.R, k.want); err != nil {
				return err
			}
			if j == 0 {
				overheads = append(overheads, us(auto-d))
				if i < 4 { // the four reference requests of core.engine_ms.*
					m["core.engine_ms."+string(eng)] = ms(d)
				}
			}
			if best == 0 || d < best {
				best = d
			}
		}
		if ratio := float64(auto) / float64(best); ratio > worst {
			worst = ratio
		}
	}
	m["core.dispatch_overhead_us"] = medianF(overheads)
	m["core.auto_vs_best_ratio"] = worst
	n := res.attempted()
	m["core.abandoned_rungs_per_req"] = float64(res.abandoned) / float64(n)
	m["core.rung_useful_ratio"] = float64(n) / float64(n+res.abandoned)

	// safeplan: heap objects allocated by one safe-plan run on the chain.
	chain := in.kinds[1]
	cq, err := qrel.ParseQuery(chain.query, chain.db.A.Voc)
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := qrel.ReliabilityWith(context.Background(), qrel.EngineSafePlan, chain.db, cq, qrel.Options{}); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	m["safeplan.allocs_per_op"] = float64(after.Mallocs - before.Mallocs)

	if err := bddProbe(rec, subRNG(in.seed, 5), m); err != nil {
		return err
	}
	addSelfShares(rec, m)
	return nil
}

// bddProbe builds a seeded 16-variable 3-DNF and evaluates its
// probability, timing bdd.New+FromDNF and Prob.
func bddProbe(rec *recorder, rng *rand.Rand, m map[string]float64) error {
	const vars, terms = 16, 24
	d := kDNF(rng, vars, terms, 3)
	p := make(prop.ProbAssignment, vars)
	for i := range p {
		p[i] = frac(rng, 1, 9, 10)
	}
	var mgr *bdd.BDD
	var root int
	build, err := probe(rec, "bdd.FromDNF", 200, func() error {
		mgr = bdd.New(vars, 1<<20)
		var err error
		root, err = mgr.FromDNF(d)
		return err
	})
	if err != nil {
		return err
	}
	prob, err := probe(rec, "bdd.Prob", 200, func() error {
		_, err := mgr.Prob(root, p)
		return err
	})
	if err != nil {
		return err
	}
	m["bdd.build_ms"] = ms(build)
	m["bdd.prob_ms"] = ms(prob)
	m["bdd.nodes"] = float64(mgr.NumNodes())
	return nil
}

func (in *exactInstance) close() {}
