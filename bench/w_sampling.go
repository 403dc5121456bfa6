package main

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"qrel"
	"qrel/internal/checkpoint"
	"qrel/internal/logic"
	"qrel/internal/vm"
)

// tolerance is how far a sampled answer may sit from the exact one, in
// units of its ε. The (ε, δ) contract allows a miss with probability
// δ = 0.05; Hoeffding sizing puts ε near three standard deviations, so
// 2ε keeps false alarms negligible over hundreds of seeds, while an
// estimator that returns a constant (0, 1/2 or 1) still fails: every
// reference lies in [0.5, 0.98] and is checked to.
const tolerance = 2.0

// sampKind is one request of the sampling-mix rotation.
type sampKind struct {
	name   string
	engine qrel.Engine
	db     *qrel.DB
	q      qrel.Query
	opts   qrel.Options
	want   *big.Rat

	mu    sync.Mutex
	first *qrel.Result // the answer of the first repetition, for bit-identity
	runs  int          // repetitions so far, warm-up included
}

// ask runs the request and checks the answer: within tolerance of the
// exact value and bit-identical to every earlier repetition.
func (k *sampKind) ask(c *call) (qrel.Result, error) {
	id := c.begin("core.ReliabilityWith." + string(k.engine))
	res, err := qrel.ReliabilityWith(context.Background(), k.engine, k.db, k.q, k.opts)
	c.end(id)
	if err != nil {
		return res, fmt.Errorf("%s: %w", k.name, err)
	}
	c.samples += int64(res.Samples)
	if err := checkWithin(k.name, res.RFloat, k.want, tolerance*k.opts.Eps); err != nil {
		return res, err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.runs++
	if k.first == nil {
		k.first = &res
	} else if err := sameEstimate(k.name, res, *k.first); err != nil {
		return res, err
	}
	return res, nil
}

// sameEstimate checks the determinism contract: same bits, same count.
func sameEstimate(kind string, a, b qrel.Result) error {
	if math.Float64bits(a.RFloat) != math.Float64bits(b.RFloat) || a.Samples != b.Samples {
		return fmt.Errorf("%s: estimate not bit-identical: R=%v samples=%d against R=%v samples=%d",
			kind, a.RFloat, a.Samples, b.RFloat, b.Samples)
	}
	return nil
}

type samplingInstance struct {
	seed    int64
	sz      sizes
	fan     *qrel.DB
	fo      qrel.Query
	hub     *qrel.DB
	exist   qrel.Query
	kinds   []*sampKind
	ckDir   string
	ckStore *qrel.CheckpointStore
	ckStats checkpoint.Metrics
}

func setupSampling(e *env) (instance, error) {
	in := &samplingInstance{seed: e.seed, sz: e.sz}
	in.fan = fanDB(subRNG(e.seed, 10), e.sz.FanN)
	in.hub = existHubDB(subRNG(e.seed, 11), e.sz.Hubs)
	var err error
	if in.fo, err = qrel.ParseQuery(cycleQuery, in.fan.A.Voc); err != nil {
		return nil, err
	}
	if in.exist, err = qrel.ParseQuery(existQuery, in.hub.A.Voc); err != nil {
		return nil, err
	}
	fanWant, hubWant := fanOracle(in.fan), hubOracle(in.hub, e.sz.Hubs)
	for name, w := range map[string]*big.Rat{"fan": fanWant, "hub": hubWant} {
		if err := checkRange(name, w); err != nil {
			return nil, err
		}
	}
	in.ckDir = filepath.Join(e.dir, "checkpoints")
	if in.ckStore, err = checkpoint.Open(in.ckDir, checkpoint.Options{Metrics: &in.ckStats}); err != nil {
		return nil, err
	}
	seed := e.seed
	tight, loose, kl := e.sz.EpsTight, e.sz.EpsLoose, e.sz.EpsKL
	in.kinds = []*sampKind{
		{name: "direct-compiled", engine: qrel.EngineMCDirect, db: in.fan, q: in.fo, want: fanWant,
			opts: qrel.Options{Eps: tight, Seed: seed, Workers: 2}},
		{name: "direct-interpreted", engine: qrel.EngineMCDirect, db: in.fan, q: in.fo, want: fanWant,
			opts: qrel.Options{Eps: loose, Seed: seed, Workers: 2, Eval: qrel.EvalInterpreted}},
		{name: "direct-sequential", engine: qrel.EngineMCDirect, db: in.fan, q: in.fo, want: fanWant,
			opts: qrel.Options{Eps: tight, Seed: seed, Workers: 0}},
		{name: "lineage-kl", engine: qrel.EngineLineageKL, db: in.hub, q: in.exist, want: hubWant,
			opts: qrel.Options{Eps: kl, Seed: seed, Workers: 2}},
		{name: "padded", engine: qrel.EngineMonteCarlo, db: in.fan, q: in.fo, want: fanWant,
			opts: qrel.Options{Eps: kl, Seed: seed, Workers: 2}},
		{name: "direct-checkpointed", engine: qrel.EngineMCDirect, db: in.fan, q: in.fo, want: fanWant,
			opts: qrel.Options{Eps: tight, Seed: seed, Workers: 2, Checkpoint: &qrel.CheckpointConfig{Store: in.ckStore}}},
		{name: "rare", engine: qrel.EngineMCRare, db: in.fan, q: in.fo, want: fanWant,
			opts: qrel.Options{Eps: kl, Seed: seed, Workers: 2}},
	}
	// Warm-up pass, which also pins each kind's first answer; then the
	// lane contract: Workers 1 and Workers 2 must agree bit for bit.
	for _, k := range in.kinds {
		res, err := k.ask(&call{})
		if err != nil {
			return nil, err
		}
		if k.opts.Workers == 2 && k.opts.Checkpoint == nil {
			o := k.opts
			o.Workers = 1
			one, err := qrel.ReliabilityWith(context.Background(), k.engine, k.db, k.q, o)
			if err != nil {
				return nil, err
			}
			if err := sameEstimate(k.name+" workers 1 vs 2", one, res); err != nil {
				return nil, err
			}
		}
	}
	return in, nil
}

func (in *samplingInstance) rotation() rotation {
	ops := make([]op, len(in.kinds))
	for i, k := range in.kinds {
		ops[i] = op{name: k.name, run: func(c *call) error {
			_, err := k.ask(c)
			return err
		}}
	}
	// Sorted by cost: rare ×2, padded, then direct-sequential ×2 and
	// direct-compiled ×2 (near-equal; together they span the 30th to 70th
	// percentile, so p50 is their common median), direct-checkpointed,
	// direct-interpreted, lineage-kl ×1 (p95 is its median).
	return newRotation(ops, 0,
		"direct-compiled", "direct-sequential", "rare", "direct-checkpointed", "padded",
		"direct-compiled", "lineage-kl", "direct-sequential", "direct-interpreted", "rare")
}

func (in *samplingInstance) layers(rec *recorder, res *loopResult, _ time.Duration, m map[string]float64) error {
	if err := parseProbe(rec, in.fan.A.Voc, []string{cycleQuery, existQuery}, m); err != nil {
		return err
	}
	d, err := probe(rec, "logic.EvalSentence", 2000, func() error {
		_, err := logic.EvalSentence(in.fan.A, in.fo)
		return err
	})
	if err != nil {
		return err
	}
	m["logic.eval_sentence_us"] = us(d)

	// SampleWorldInto with a reused buffer, in blocks of 1000 draws.
	rng := rand.New(rand.NewSource(in.seed))
	buf := in.fan.NewWorldBuf()
	d, err = probe(rec, "unreliable.SampleWorldInto.x1000", 30, func() error {
		for i := 0; i < 1000; i++ {
			in.fan.SampleWorldInto(rng, buf)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["unreliable.sample_world_ns"] = float64(d) / 1000

	d, err = probe(rec, "vm.Compile", 200, func() error {
		_, err := vm.NewCompiler(in.fan).Compile(in.fo, nil)
		return err
	})
	if err != nil {
		return err
	}
	m["vm.compile_us"] = us(d)

	// The reference requests of the four sampling engines are rotation members.
	m["core.engine_ms.monte-carlo-direct"] = ms(res.kindMedian(0, false))
	m["core.engine_ms.lineage-kl"] = ms(res.kindMedian(3, false))
	m["core.engine_ms.monte-carlo"] = ms(res.kindMedian(4, false))
	m["core.engine_ms.monte-carlo-rare"] = ms(res.kindMedian(6, false))

	// Sampling rate of one worker per evaluation mode, and of the
	// legacy sequential stream; two workers against one.
	rate := func(engine qrel.Engine, db *qrel.DB, q qrel.Query, o qrel.Options) (float64, time.Duration, error) {
		d, got, err := engineProbe(rec, 5, engine, db, q, o)
		if err != nil {
			return 0, 0, err
		}
		return float64(got.Samples) / d.Seconds(), d, nil
	}
	tight, loose := in.sz.EpsTight, in.sz.EpsLoose
	var w1 time.Duration
	if m["mc.samples_per_s.compiled"], w1, err = rate(qrel.EngineMCDirect, in.fan, in.fo,
		qrel.Options{Eps: tight, Seed: in.seed, Workers: 1}); err != nil {
		return err
	}
	if m["mc.samples_per_s.interpreted"], _, err = rate(qrel.EngineMCDirect, in.fan, in.fo,
		qrel.Options{Eps: loose, Seed: in.seed, Workers: 1, Eval: qrel.EvalInterpreted}); err != nil {
		return err
	}
	m["mc.samples_per_s.sequential"] = float64(in.kinds[2].first.Samples) / res.kindMedian(2, false).Seconds()
	// Scaling beyond two workers is unmeasured: the box has two cores.
	m["mc.par_speedup_2"] = float64(w1) / float64(res.kindMedian(0, false))
	if m["karpluby.samples_per_s.compiled"], _, err = rate(qrel.EngineLineageKL, in.hub, in.exist,
		qrel.Options{Eps: in.sz.EpsKL, Seed: in.seed, Workers: 1}); err != nil {
		return err
	}
	if m["karpluby.samples_per_s.interpreted"], _, err = rate(qrel.EngineLineageKL, in.hub, in.exist,
		qrel.Options{Eps: in.sz.EpsKL, Seed: in.seed, Workers: 1, Eval: qrel.EvalInterpreted}); err != nil {
		return err
	}

	if err := in.checkpointProbe(rec, m); err != nil {
		return err
	}
	m["bench.samples_per_s"] = float64(res.drawn) / res.wall.Seconds()
	addSelfShares(rec, m)
	return nil
}

// checkpointProbe reports what the checkpointed request wrote (from the
// store's own counters, over every repetition so far) and times Save
// and LoadLatest on a payload that request captured.
func (in *samplingInstance) checkpointProbe(rec *recorder, m map[string]float64) error {
	snap := in.ckStats.Snapshot()
	m["checkpoint.saves_per_run"] = float64(snap.Written) / float64(in.kinds[5].runs)
	if snap.Written > 0 {
		m["checkpoint.bytes_per_snapshot"] = float64(snap.BytesWritten) / float64(snap.Written)
	}
	payload, err := in.ckStore.LoadLatest()
	if err != nil {
		return fmt.Errorf("loading the captured snapshot: %w", err)
	}
	scratch, err := checkpoint.Open(in.ckDir+"-probe", checkpoint.Options{})
	if err != nil {
		return err
	}
	d, err := probe(rec, "checkpoint.Save", 30, func() error { return scratch.Save(payload) })
	if err != nil {
		return err
	}
	m["checkpoint.save_ms"] = ms(d)
	d, err = probe(rec, "checkpoint.LoadLatest", 30, func() error {
		_, err := scratch.LoadLatest()
		return err
	})
	if err != nil {
		return err
	}
	m["checkpoint.load_ms"] = ms(d)
	return nil
}

func (in *samplingInstance) close() {}
