package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"qrel"
	"qrel/internal/cluster"
	"qrel/internal/server"
)

type clusterInstance struct {
	replicas []*server.Server
	rts      []*httptest.Server
	coord    *cluster.Coordinator
	cts      *httptest.Server
	cli      *http.Client

	fanout, proxied, trivial *httpKind
	single                   qrel.Result // the single-node Workers: 2 answer the merge must equal
	events, retries          int         // Σ cluster_trail length; Σ retry/reassign/hedge events
	requests                 int
}

func setupCluster(e *env) (instance, error) {
	dbs, err := newServeDBs(e)
	if err != nil {
		return nil, err
	}
	in := &clusterInstance{cli: newHTTPClient()}
	var urls []string
	for i := 0; i < 2; i++ {
		s := server.New(server.Config{Workers: 2, ReplicaID: fmt.Sprintf("replica-%d", i)})
		dbs.register(s)
		ts := httptest.NewServer(s.Handler())
		in.replicas, in.rts = append(in.replicas, s), append(in.rts, ts)
		urls = append(urls, ts.URL)
	}
	// The default cluster.Config: no audits, attestation on, no hedging.
	if in.coord, err = cluster.New(cluster.Config{Replicas: urls}); err != nil {
		in.close()
		return nil, err
	}
	in.cts = httptest.NewServer(in.coord.Handler())

	fo, err := qrel.ParseQuery(cycleQuery, dbs.fan.A.Voc)
	if err != nil {
		in.close()
		return nil, err
	}
	opts := qrel.Options{Eps: e.sz.EpsTight, Seed: e.seed, Workers: 2}
	if in.single, err = qrel.ReliabilityWith(context.Background(), qrel.EngineMCDirect, dbs.fan, fo, opts); err != nil {
		in.close()
		return nil, err
	}
	in.fanout = &httpKind{name: "fanout-mc",
		req:  wireRequest{DB: "fan", Query: cycleQuery, Engine: "monte-carlo-direct", Eps: opts.Eps, Seed: opts.Seed, Workers: 2},
		want: dbs.fanWant, eps: opts.Eps}
	in.proxied = &httpKind{name: "proxy-qfree", req: wireRequest{DB: "qfree", Query: qfreeQuery}, want: dbs.qfreeWant}
	in.trivial = &httpKind{name: "proxy-trivial", req: wireRequest{DB: "tiny", Query: "S(x)"}, want: dbs.tinyWant}
	if err := in.rotation().warmUp(); err != nil {
		in.close()
		return nil, err
	}
	in.events, in.retries, in.requests = 0, 0, 0
	return in, nil
}

// clusterEvent is the one field of a cluster_trail step the harness reads.
type clusterEvent struct {
	Event string `json:"event"`
}

// viaCoordinator sends one request through qrelcoord and accounts its
// cluster trail.
func (in *clusterInstance) viaCoordinator(c *call, k *httpKind) (*wireResponse, error) {
	got, err := post(c, "cluster.roundtrip", in.cli, in.cts.URL, &k.req)
	if err != nil {
		return nil, err
	}
	in.requests++
	in.events += len(got.ClusterTrail)
	for _, raw := range got.ClusterTrail {
		var ev clusterEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			return nil, fmt.Errorf("%s: decoding cluster_trail: %w", k.name, err)
		}
		switch ev.Event {
		case "retry", "reassign", "hedge":
			in.retries++
		}
	}
	c.samples += int64(got.Samples)
	return got, k.check(got)
}

func (in *clusterInstance) rotation() rotation {
	kinds := []op{
		{name: in.fanout.name, run: func(c *call) error {
			got, err := in.viaCoordinator(c, in.fanout)
			if err != nil {
				return err
			}
			// The cluster's central invariant: the merged lane ranges
			// equal the single-node Workers: 2 run bit for bit.
			if math.Float64bits(got.R) != math.Float64bits(in.single.RFloat) || got.Samples != in.single.Samples {
				return fmt.Errorf("fan-out merge R=%v samples=%d differs from the single-node R=%v samples=%d",
					got.R, got.Samples, in.single.RFloat, in.single.Samples)
			}
			return nil
		}},
		{name: in.proxied.name, run: func(c *call) error {
			_, err := in.viaCoordinator(c, in.proxied)
			return err
		}},
		{name: in.trivial.name, run: func(c *call) error {
			_, err := in.viaCoordinator(c, in.trivial)
			return err
		}},
	}
	// Sorted by cost: proxy-trivial ×2, proxy-qfree ×7 (p50 falls inside
	// it: the proxy path), fanout-mc ×1 (p95 is its median: the fan-out path).
	return newRotation(kinds, 0,
		"proxy-qfree", "proxy-trivial", "proxy-qfree", "proxy-qfree", "fanout-mc",
		"proxy-qfree", "proxy-qfree", "proxy-trivial", "proxy-qfree", "proxy-qfree")
}

func (in *clusterInstance) layers(rec *recorder, res *loopResult, _ time.Duration, m map[string]float64) error {
	if err := parseProbe(rec, graphVoc(), []string{cycleQuery, qfreeQuery}, m); err != nil {
		return err
	}
	// The same two requests sent straight to one replica.
	direct := func(name string, k *httpKind, n int) (time.Duration, error) {
		return probe(rec, name, n, func() error {
			got, err := post(&call{}, name, in.cli, in.rts[0].URL, &k.req)
			if err != nil {
				return err
			}
			return k.check(got)
		})
	}
	single, err := direct("server.roundtrip.fanout-mc", in.fanout, 20)
	if err != nil {
		return err
	}
	plain, err := direct("server.roundtrip.proxy-qfree", in.proxied, 40)
	if err != nil {
		return err
	}
	m["cluster.fanout_vs_single_ratio"] = float64(res.kindMedian(0, false)) / float64(single)
	m["cluster.proxy_overhead_ms"] = ms(res.kindMedian(1, false) - plain)
	if in.requests > 0 {
		m["cluster.trail_events_per_req"] = float64(in.events) / float64(in.requests)
		m["cluster.retries_per_req"] = float64(in.retries) / float64(in.requests)
	}
	st := in.coord.Statz()
	m["cluster.attest_failures"] = float64(st.AttestFailures)
	if st.AttestFailures != 0 || st.Retries != 0 {
		return fmt.Errorf("coordinator reports %d attestation failures and %d retries on a healthy cluster", st.AttestFailures, st.Retries)
	}
	m["cluster.p99_ms"] = ms(percentile(res.sorted(), 99))
	m["bench.samples_per_s"] = float64(res.drawn) / res.wall.Seconds()
	addSelfShares(rec, m)
	return nil
}

func (in *clusterInstance) close() {
	in.cli.CloseIdleConnections()
	if in.cts != nil {
		in.cts.Close()
	}
	if in.coord != nil {
		in.coord.Close()
	}
	for _, ts := range in.rts {
		ts.Close()
	}
	for _, s := range in.replicas {
		s.Close()
	}
}
