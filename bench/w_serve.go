package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/big"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"qrel"
	"qrel/internal/server"
	"qrel/internal/store"
	"qrel/internal/unreliable"
)

// connections is the number of client goroutines and HTTP connections
// of the request workloads: the box has two cores.
const connections = 2

// wireRequest and wireResponse are the fields of qreld's JSON API the
// harness uses. Binding to the wire format, not to the server's Go
// types, keeps the referee independent of server refactors.
type wireRequest struct {
	DB      string  `json:"db,omitempty"`
	DBText  string  `json:"db_text,omitempty"`
	Store   string  `json:"store,omitempty"`
	Query   string  `json:"query"`
	Engine  string  `json:"engine,omitempty"`
	Eps     float64 `json:"eps,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	Workers int     `json:"workers,omitempty"`
}

type wireResponse struct {
	R            float64           `json:"r"`
	RExact       string            `json:"r_exact"`
	Samples      int               `json:"samples"`
	ElapsedMS    int64             `json:"elapsed_ms"`
	ClusterTrail []json.RawMessage `json:"cluster_trail"`
}

// newHTTPClient returns a client limited to `connections` connections
// per host, all kept alive.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     connections,
		MaxIdleConnsPerHost: connections,
	}}
}

// post sends one reliability request under a span and decodes the answer.
func post(c *call, span string, cli *http.Client, base string, req *wireRequest) (*wireResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	id := c.begin(span)
	defer c.end(id)
	resp, err := cli.Post(base+"/v1/reliability", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", span, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var out wireResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: decoding response: %w", span, err)
	}
	return &out, nil
}

// httpKind is one request kind sent over HTTP with its reference.
type httpKind struct {
	name string
	req  wireRequest
	want *big.Rat // exact reference
	eps  float64  // 0: the answer must equal want exactly; else within tolerance·eps

	mu    sync.Mutex
	first *wireResponse
}

// check compares a response with the reference and, for a sampled
// answer, with the first repetition bit for bit.
func (k *httpKind) check(got *wireResponse) error {
	if k.eps == 0 {
		if got.RExact != k.want.RatString() {
			return fmt.Errorf("%s: exact answer %q, reference %s", k.name, got.RExact, k.want.RatString())
		}
		return nil
	}
	if err := checkWithin(k.name, got.R, k.want, tolerance*k.eps); err != nil {
		return err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.first == nil {
		k.first = got
	} else if math.Float64bits(got.R) != math.Float64bits(k.first.R) || got.Samples != k.first.Samples {
		return fmt.Errorf("%s: estimate not bit-identical across repetitions: %v/%d against %v/%d",
			k.name, got.R, got.Samples, k.first.R, k.first.Samples)
	}
	return nil
}

type serveInstance struct {
	sz     sizes
	srv    *server.Server
	ts     *httptest.Server
	cli    *http.Client
	kinds  []*httpKind
	inline string // the inline database text

	mu       sync.Mutex
	overhead []time.Duration // client round trip − server-side elapsed_ms
}

// serveDBs are the databases the request workloads register, with
// their references. Shared by serve-open and cluster-fanout.
type serveDBs struct {
	qfree, hub, fan, tiny                 *qrel.DB
	qfreeWant, hubWant, fanWant, tinyWant *big.Rat
}

func newServeDBs(e *env) (*serveDBs, error) {
	d := &serveDBs{
		qfree: qfreeDB(subRNG(e.seed, 20), e.sz.ServeN),
		hub:   existHubDB(subRNG(e.seed, 21), e.sz.ServeHubs),
		fan:   fanDB(subRNG(e.seed, 22), e.sz.FanN),
		tiny:  existPathDB(subRNG(e.seed, 23), e.sz.ExistPath),
	}
	d.qfreeWant, d.hubWant, d.fanWant = qfreeOracle(d.qfree), hubOracle(d.hub, e.sz.ServeHubs), fanOracle(d.fan)
	// The trivial request S(x) on the tiny path: label i is observed and
	// wrong with its own error probability; the last node has no label.
	h := new(big.Rat)
	for i := 0; i < d.tiny.A.N; i++ {
		h.Add(h, d.tiny.ErrorProb(label(i)))
	}
	h.Quo(h, big.NewRat(int64(d.tiny.A.N), 1))
	d.tinyWant = h.Sub(one, h)
	for name, w := range map[string]*big.Rat{"qfree": d.qfreeWant, "hub": d.hubWant, "fan": d.fanWant, "tiny": d.tinyWant} {
		if err := checkRange(name, w); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// register adds the four databases to a qreld.
func (d *serveDBs) register(s *server.Server) {
	s.Register("qfree", d.qfree)
	s.Register("hub", d.hub)
	s.Register("fan", d.fan)
	s.Register("tiny", d.tiny)
}

func setupServe(e *env) (instance, error) {
	dbs, err := newServeDBs(e)
	if err != nil {
		return nil, err
	}
	storeDir := filepath.Join(e.dir, "stores")
	if err := os.MkdirAll(storeDir, 0o777); err != nil {
		return nil, err
	}
	if err := store.BuildFromDB(filepath.Join(storeDir, "qfree.qstore"), dbs.qfree, store.Options{}, 0, nil); err != nil {
		return nil, err
	}
	var text strings.Builder
	if err := unreliable.WriteDB(&text, dbs.qfree); err != nil {
		return nil, err
	}

	in := &serveInstance{sz: e.sz, cli: newHTTPClient(), inline: text.String()}
	in.srv = server.New(server.Config{Workers: 2, StoreDir: storeDir})
	dbs.register(in.srv)
	in.ts = httptest.NewServer(in.srv.Handler())
	in.kinds = []*httpKind{
		{name: "named-qfree", req: wireRequest{DB: "qfree", Query: qfreeQuery}, want: dbs.qfreeWant},
		{name: "inline-qfree", req: wireRequest{DBText: in.inline, Query: qfreeQuery}, want: dbs.qfreeWant},
		{name: "named-bdd", req: wireRequest{DB: "hub", Query: existQuery, Engine: "lineage-bdd"}, want: dbs.hubWant},
		{name: "named-mc", req: wireRequest{DB: "fan", Query: cycleQuery, Engine: "monte-carlo-direct", Eps: e.sz.EpsLoose, Seed: e.seed, Workers: 2},
			want: dbs.fanWant, eps: e.sz.EpsLoose},
		{name: "store-qfree", req: wireRequest{Store: "qfree.qstore", Query: qfreeQuery}, want: dbs.qfreeWant},
		{name: "trivial", req: wireRequest{DB: "tiny", Query: "S(x)"}, want: dbs.tinyWant},
	}
	// The warm-up pass also loads and caches the store.
	if err := in.rotation().warmUp(); err != nil {
		in.close()
		return nil, err
	}
	in.overhead = nil
	return in, nil
}

// send performs one request of a kind, checks it, and keeps the client
// round trip minus the server's own elapsed time.
func (in *serveInstance) send(c *call, k *httpKind) error {
	t := time.Now()
	got, err := post(c, "server.roundtrip", in.cli, in.ts.URL, &k.req)
	d := time.Since(t)
	if err != nil {
		return err
	}
	in.mu.Lock()
	in.overhead = append(in.overhead, d-time.Duration(got.ElapsedMS)*time.Millisecond)
	in.mu.Unlock()
	c.samples += int64(got.Samples)
	return k.check(got)
}

func (in *serveInstance) rotation() rotation {
	ops := make([]op, len(in.kinds))
	for i, k := range in.kinds {
		ops[i] = op{name: k.name, run: func(c *call) error { return in.send(c, k) }}
	}
	// Sorted by cost: trivial, named-mc ×2, then the three ways to reach
	// the qfree database ×2 each (p50 falls inside them), named-bdd ×1
	// (p95 is its median, queueing included).
	return newRotation(ops, in.sz.ServeRate,
		"named-qfree", "named-mc", "inline-qfree", "store-qfree", "trivial",
		"named-bdd", "named-qfree", "inline-qfree", "named-mc", "store-qfree")
}

// latencyLimit is the p95 a rate step must meet to count as sustained:
// about twice the service time of the slowest request kind, so that an
// idle server passes and a queueing one does not.
const latencyLimit = 50 * time.Millisecond

func (in *serveInstance) layers(rec *recorder, res *loopResult, budget time.Duration, m map[string]float64) error {
	queries := make([]string, len(in.kinds))
	for i, k := range in.kinds {
		queries[i] = k.req.Query
	}
	if err := parseProbe(rec, graphVoc(), queries, m); err != nil {
		return err
	}
	d, err := probe(rec, "unreliable.ParseDB", 200, func() error {
		_, err := unreliable.ParseDB(strings.NewReader(in.inline))
		return err
	})
	if err != nil {
		return err
	}
	m["unreliable.parse_db_ms"] = ms(d)

	// From the open loop itself: tail, generator lateness, overhead,
	// shedding and how busy the pool was.
	m["server.p99_ms"] = ms(percentile(res.sorted(), 99))
	late := make([]time.Duration, len(res.samples))
	for i, s := range res.samples {
		late[i] = s.late
	}
	m["bench.late_p99_ms"] = ms(percentile(sortedCopy(late), 99))
	in.mu.Lock()
	m["server.overhead_ms"] = ms(median(in.overhead))
	in.mu.Unlock()
	st := in.srv.Statz()
	sent := float64(st.Accepted + st.Shed)
	if sent > 0 {
		m["server.shed_share"] = float64(st.Shed) / sent
	}
	var busyMS int64
	for _, eng := range st.Engines {
		busyMS += eng.BusyMS
	}
	// Busy time is cumulative since boot (warm-up included); so is the
	// uptime it is divided by.
	m["server.engine_busy_share"] = float64(busyMS) / (float64(st.UptimeMS) * float64(st.Workers))

	// Closed, sequential probes: the HTTP/JSON floor, and what a
	// store-backed request costs over the same query on the named db.
	sendProbe := func(name string, k *httpKind, n int) (time.Duration, error) {
		return probe(rec, name, n, func() error { return in.send(&call{}, k) })
	}
	floor, err := sendProbe("server.roundtrip.trivial", in.kinds[5], 300)
	if err != nil {
		return err
	}
	m["server.floor_us"] = us(floor)
	named, err := sendProbe("server.roundtrip.named-qfree", in.kinds[0], 40)
	if err != nil {
		return err
	}
	stored, err := sendProbe("server.roundtrip.store-qfree", in.kinds[4], 40)
	if err != nil {
		return err
	}
	m["server.store_req_extra_us"] = us(stored - named)

	// Capacity: the highest of four fixed rates whose p95 meets the
	// limit without a growing backlog.
	rot := in.rotation()
	best := 0
	for _, rate := range []int{50, 100, 200, 400} {
		step := openLoop(rot, rate, budget/4, connections, nil)
		if step.failed > 0 {
			return fmt.Errorf("rate step %d req/s: %w", rate, step.firstErr)
		}
		if sustained(step) {
			best = rate
		} else {
			break
		}
	}
	m["server.max_rate_ok_rps"] = float64(best)
	addSelfShares(rec, m)
	return nil
}

// sustained reports whether a rate step met the latency limit at p95
// and did not build a backlog: the last third of its requests (in
// completion order) must not be slower than twice the first third plus
// 5 ms.
func sustained(step *loopResult) bool {
	if percentile(step.sorted(), 95) > latencyLimit {
		return false
	}
	lat := step.latencies(func(sample) bool { return true })
	third := len(lat) / 3
	if third == 0 {
		return true
	}
	return median(lat[len(lat)-third:]) <= 2*median(lat[:third])+5*time.Millisecond
}

func (in *serveInstance) close() {
	in.cli.CloseIdleConnections()
	in.ts.Close()
	in.srv.Close()
}
