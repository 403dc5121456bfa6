package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"qrel"
)

// env is what a workload's set-up receives: the run seed, the shape
// table, and a scratch directory inside the checkout that the run
// removes when it ends.
type env struct {
	seed int64
	sz   sizes
	dir  string
}

// instance is one set-up workload, ready to be measured.
type instance interface {
	// rotation is the fixed request mix and how it is sent.
	rotation() rotation
	// layers runs the workload's layer probes (traced run only) and
	// adds the per-layer metrics this workload owns to m. res is the
	// traced measured phase; budget is the wall clock the probes that
	// scale with time may use.
	layers(rec *recorder, res *loopResult, budget time.Duration, m map[string]float64) error
	// close releases servers, stores and files.
	close()
}

// workload names one of the five benchmark workloads.
type workload struct {
	name  string
	why   string
	setup func(e *env) (instance, error)
}

// workloads lists the five in the order a full run executes them. The
// why strings are the one-line rationales BENCHMARK.json carries.
var workloads = []workload{
	{"exact-ladder", "auto dispatch over five exact-answerable requests: logic, core dispatch, safeplan, bdd and world enumeration do all the work; mc, karpluby and vm do none", setupExact},
	{"sampling-mix", "the sampling layer used four ways (compiled, interpreted, sequential, checkpointed) plus Karp-Luby and the padded estimator: mc, karpluby, vm and checkpoint do the work; bdd and safeplan none", setupSampling},
	{"serve-open", "one in-process qreld under an open loop at a fixed 100 req/s over 2 connections: the only workload where server decode, queueing, encode and per-request parsing are a large share", setupServe},
	{"cluster-fanout", "qrelcoord over 2 in-process replicas, closed loop: lane-range fan-out with attestation and merge beside a whole-request proxy; the merge must equal the single-node answer bit for bit", setupCluster},
	{"store-io", "store and ra directly on a 1024-element database: journalled builds beside reads, and a pipeline whose file fits the buffer pool beside one 10x the pool; no engine runs", setupStore},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// probe times n calls of fn as parentless spans outside any request
// (Req = -1) and returns the median call time.
func probe(rec *recorder, name string, n int, fn func() error) (time.Duration, error) {
	d := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		id := rec.begin(name, -1, -1)
		t := time.Now()
		err := fn()
		d = append(d, time.Since(t))
		rec.end(id)
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
	}
	return median(d), nil
}

// spanMedian is the median duration of the closed spans with this name.
func spanMedian(rec *recorder, name string) time.Duration {
	var d []time.Duration
	for _, s := range rec.spans {
		if s.Name == name && s.End >= 0 {
			d = append(d, s.End-s.Start)
		}
	}
	return median(d)
}

// parseProbe measures logic.Parse over a workload's query texts.
func parseProbe(rec *recorder, voc *qrel.Vocabulary, queries []string, m map[string]float64) error {
	const reps = 100
	i := 0
	d, err := probe(rec, "logic.Parse", reps*len(queries), func() error {
		_, err := qrel.ParseQuery(queries[i%len(queries)], voc)
		i++
		return err
	})
	m["logic.parse_us"] = us(d)
	return err
}

// engineProbe times core.ReliabilityWith(engine) on a parsed request.
func engineProbe(rec *recorder, n int, engine qrel.Engine, db *qrel.DB, q qrel.Query, opts qrel.Options) (time.Duration, qrel.Result, error) {
	var last qrel.Result
	d, err := probe(rec, "core.ReliabilityWith."+string(engine), n, func() error {
		res, err := qrel.ReliabilityWith(context.Background(), engine, db, q, opts)
		last = res
		return err
	})
	return d, last, err
}

// addSelfShares adds the <layer>.self_share metrics of the layers the
// tables know, from the spans of the traced requests.
func addSelfShares(rec *recorder, m map[string]float64) {
	shares := selfShares(rec.spans)
	layers := make([]string, 0, len(shares))
	for l := range shares {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		m[l+".self_share"] = shares[l]
	}
}
