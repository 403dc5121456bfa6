package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qrel/internal/faultinject"
	"qrel/internal/rel"
	"qrel/internal/server"
	"qrel/internal/server/client"
	"qrel/internal/testutil"
	"qrel/internal/unreliable"
)

// testDB builds the same small graph database on every replica.
func testDB(t *testing.T, n, uncertain int) *unreliable.DB {
	t.Helper()
	voc := rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2}, rel.RelSym{Name: "S", Arity: 1})
	s := rel.MustStructure(n, voc)
	s.MustAdd("S", 0)
	rng := rand.New(rand.NewSource(1))
	db := unreliable.New(s)
	added := 0
	for added < uncertain {
		a, b := rng.Intn(n), rng.Intn(n)
		atom := rel.GroundAtom{Rel: "E", Args: rel.Tuple{a, b}}
		if db.ErrorProb(atom).Sign() != 0 {
			continue
		}
		db.MustSetError(atom, big.NewRat(1, 4))
		added++
	}
	return db
}

// fleet is a set of in-process qreld replicas plus their URLs.
type fleet struct {
	servers []*server.Server
	fronts  []*httptest.Server
	urls    []string
}

// startFleet boots n replicas, each with the "g" database registered.
func startFleet(t *testing.T, n int, cfg func(i int) server.Config) *fleet {
	t.Helper()
	f := &fleet{}
	for i := 0; i < n; i++ {
		c := server.Config{}
		if cfg != nil {
			c = cfg(i)
		}
		if c.ReplicaID == "" {
			c.ReplicaID = fmt.Sprintf("replica-%d", i)
		}
		s := server.New(c)
		s.Register("g", testDB(t, 4, 3))
		ts := httptest.NewServer(s.Handler())
		f.servers = append(f.servers, s)
		f.fronts = append(f.fronts, ts)
		f.urls = append(f.urls, ts.URL)
	}
	t.Cleanup(func() {
		for i := range f.fronts {
			f.fronts[i].Close()
			f.servers[i].Close()
		}
	})
	return f
}

// kill shuts replica i down hard: in-flight connections are severed,
// new ones refused.
func (f *fleet) kill(i int) {
	f.fronts[i].CloseClientConnections()
	f.fronts[i].Close()
	f.servers[i].Close()
}

// fastCoord builds a coordinator over urls with test-speed timings.
func fastCoord(t *testing.T, urls []string, mutate func(*Config)) *Coordinator {
	t.Helper()
	cfg := Config{
		Replicas:           urls,
		ProbeInterval:      5 * time.Millisecond,
		ProbeTimeout:       250 * time.Millisecond,
		ProbeFailThreshold: 2,
		BaseBackoff:        time.Millisecond,
		MaxBackoff:         10 * time.Millisecond,
		JobPoll:            2 * time.Millisecond,
		Seed:               1,
		Breaker:            server.BreakerConfig{Threshold: 3, Cooldown: 10 * time.Millisecond},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// estimate is the estimate-defining subset of a Response: every field
// that must be bit-identical between a cluster answer and the
// single-node reference. Trails and timings are deliberately excluded.
type estimate struct {
	R, H       float64
	Eps, Delta float64
	Samples    int
	Engine     string
	Guarantee  string
	Class      string
	Seed       int64
	Degraded   bool
}

func estOf(res *server.Response) estimate {
	return estimate{R: res.R, H: res.H, Eps: res.Eps, Delta: res.Delta, Samples: res.Samples,
		Engine: res.Engine, Guarantee: res.Guarantee, Class: res.Class, Seed: res.Seed, Degraded: res.Degraded}
}

// mcReq is the canonical fan-out-eligible request of these tests.
func mcReq() server.Request {
	return server.Request{
		DB:      "g",
		Query:   "exists x y . E(x,y)",
		Engine:  "monte-carlo-direct",
		Eps:     0.02,
		Seed:    42,
		Workers: 4,
	}
}

// singleNodeRef computes the one-machine Workers=4 reference answer on
// a dedicated replica.
func singleNodeRef(t *testing.T, req server.Request) estimate {
	t.Helper()
	f := startFleet(t, 1, nil)
	res, err := client.New(f.urls[0]).Reliability(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return estOf(res)
}

// TestClusterDeterminismMatrix is the cross-topology bit-identity
// check: the same seeded request answered by a 1-replica proxy, a
// 2-replica fan-out, and a 4-replica fan-out — plus a 4-replica run
// with one replica hard-killed mid-estimation — must all equal the
// single-node Workers=4 reference, field for field.
func TestClusterDeterminismMatrix(t *testing.T) {
	defer faultinject.Reset()
	testutil.CheckGoroutineLeaks(t)
	req := mcReq()
	want := singleNodeRef(t, req)

	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("replicas-%d", n), func(t *testing.T) {
			f := startFleet(t, n, nil)
			c := fastCoord(t, f.urls, nil)
			res, err := c.Do(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if got := estOf(res); got != want {
				t.Errorf("cluster estimate %+v,\nwant single-node %+v", got, want)
			}
			st := c.Statz()
			if n >= 2 && st.Fanouts != 1 {
				t.Errorf("fanouts = %d, want 1", st.Fanouts)
			}
			if n == 1 && st.Proxied != 1 {
				t.Errorf("proxied = %d, want 1 (single replica cannot fan out)", st.Proxied)
			}
		})
	}

	t.Run("replicas-4-mid-run-kill", func(t *testing.T) {
		defer faultinject.Reset()
		f := startFleet(t, 4, nil)
		c := fastCoord(t, f.urls, nil)
		// Hold every sub-request send for 50ms, then kill one replica
		// inside that window: its range's first attempt targets a replica
		// that is gone by the time the connection opens, forcing a real
		// reassignment to a survivor.
		faultinject.Enable(faultinject.SiteClusterSend, faultinject.Fault{Delay: 50 * time.Millisecond})
		type out struct {
			res *server.Response
			err error
		}
		done := make(chan out, 1)
		go func() {
			res, err := c.Do(context.Background(), req)
			done <- out{res, err}
		}()
		time.Sleep(10 * time.Millisecond)
		f.kill(0)
		o := <-done
		if o.err != nil {
			t.Fatal(o.err)
		}
		if got := estOf(o.res); got != want {
			t.Errorf("post-kill estimate %+v,\nwant single-node %+v", got, want)
		}
		if c.Statz().Reassigns == 0 {
			t.Error("reassigns = 0, want at least one (the killed replica's range must move)")
		}
		var sawReassign bool
		for _, s := range o.res.ClusterTrail {
			if s.Event == "reassign" {
				sawReassign = true
			}
		}
		if !sawReassign {
			t.Errorf("trail %+v records no reassign", o.res.ClusterTrail)
		}
	})
}

// TestClusterMixedEvalModes is the mixed-version-fleet check: replicas
// that disagree on evaluation mode (one forced to the interpreter, one
// to the compiled bytecode path, one on the default) must produce the
// same per-lane aggregates — the merged estimate, and every lane
// digest the coordinator attests, are bit-identical to a single node
// running pure interpreted.
func TestClusterMixedEvalModes(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	req := mcReq()
	interp := req
	interp.Eval = "interpreted"
	want := singleNodeRef(t, interp)

	modes := []string{"interpreted", "compiled", ""}
	f := startFleet(t, 3, func(i int) server.Config {
		return server.Config{DefaultEval: modes[i]}
	})
	c := fastCoord(t, f.urls, nil)
	res, err := c.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := estOf(res); got != want {
		t.Errorf("mixed-eval cluster estimate %+v,\nwant interpreted single-node %+v", got, want)
	}
	for _, s := range res.ClusterTrail {
		if s.Event == "attest-fail" {
			t.Errorf("attestation failed across eval modes: %+v", s)
		}
	}
}

// TestClusterWorkersZeroMatchesFanout: Workers only schedules the lane
// split, so a Workers 0 monte-carlo-direct request, proxied whole to
// one replica, answers bit for bit what the same seed's Workers 2
// request answers when it fans out as lane ranges over two replicas.
func TestClusterWorkersZeroMatchesFanout(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	f := startFleet(t, 2, nil)
	c := fastCoord(t, f.urls, nil)
	seq := mcReq()
	seq.Workers = 0
	proxied, err := c.Do(context.Background(), seq)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Statz(); st.Proxied != 1 || st.Fanouts != 0 {
		t.Fatalf("workers 0: statz proxied=%d fanouts=%d, want 1/0", st.Proxied, st.Fanouts)
	}
	par := mcReq()
	par.Workers = 2
	fanned, err := c.Do(context.Background(), par)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Statz(); st.Fanouts != 1 {
		t.Fatalf("workers 2: statz fanouts=%d, want 1", st.Fanouts)
	}
	if got, want := estOf(proxied), estOf(fanned); got != want {
		t.Errorf("workers 0 proxied %+v,\nworkers 2 fan-out %+v", got, want)
	}
}

// TestClusterProxiesNonParallel checks that anything not eligible for
// lane fan-out — here an auto-dispatched exact query — proxies whole to
// one replica, answer unchanged.
func TestClusterProxiesNonParallel(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	f := startFleet(t, 3, nil)
	c := fastCoord(t, f.urls, nil)
	res, err := c.Do(context.Background(), server.Request{DB: "g", Query: "exists x y . E(x,y)"})
	if err != nil {
		t.Fatal(err)
	}
	if res.RExact == "" || res.Guarantee != "exact" {
		t.Errorf("proxied exact answer %+v, want an exact guarantee", res)
	}
	if len(res.ClusterTrail) == 0 || res.ClusterTrail[len(res.ClusterTrail)-1].Event != "proxy" {
		t.Errorf("trail %+v, want a closing proxy step", res.ClusterTrail)
	}
	if st := c.Statz(); st.Proxied != 1 || st.Fanouts != 0 {
		t.Errorf("statz proxied=%d fanouts=%d, want 1/0", st.Proxied, st.Fanouts)
	}
}

// TestClusterHedgesSlowReplica arms a one-shot send delay much larger
// than HedgeAfter: the slow range must be duplicated to the next live
// replica, the fast copy wins, and the merged answer is unchanged.
func TestClusterHedgesSlowReplica(t *testing.T) {
	defer faultinject.Reset()
	testutil.CheckGoroutineLeaks(t)
	req := mcReq()
	want := singleNodeRef(t, req)
	f := startFleet(t, 2, nil)
	c := fastCoord(t, f.urls, func(cfg *Config) { cfg.HedgeAfter = 15 * time.Millisecond })
	faultinject.Enable(faultinject.SiteClusterSend, faultinject.Fault{Delay: 400 * time.Millisecond, Times: 1})
	start := time.Now()
	res, err := c.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := estOf(res); got != want {
		t.Errorf("hedged estimate %+v,\nwant %+v", got, want)
	}
	if c.Statz().Hedges == 0 {
		t.Error("hedges = 0, want at least one")
	}
	if elapsed := time.Since(start); elapsed >= 400*time.Millisecond {
		t.Errorf("request took %v: the hedge did not cut the slow replica short", elapsed)
	}
	var sawHedge bool
	for _, s := range res.ClusterTrail {
		if s.Event == "hedge" {
			sawHedge = true
		}
	}
	if !sawHedge {
		t.Errorf("trail %+v records no hedge", res.ClusterTrail)
	}
}

// TestClusterReassignsHungReplica covers the hung-not-crashed failure
// mode: a replica that answers /readyz but never answers the
// sub-request. The coordinator's own RequestTimeout surfaces that as
// context.DeadlineExceeded while the caller's context is still live, so
// the coordinator must treat it as transient, reassign the lane range
// to the survivor, and still produce the bit-identical merged answer —
// not abort the whole fan-out.
func TestClusterReassignsHungReplica(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	req := mcReq()
	want := singleNodeRef(t, req)
	f := startFleet(t, 1, nil)
	hungMux := http.NewServeMux()
	hungMux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	// The handler hangs until the test ends (released by stop — with the
	// request body unread the server never notices the coordinator
	// abandoning the connection, so waiting on r.Context() would deadlock
	// hung.Close).
	stop := make(chan struct{})
	hungMux.HandleFunc("/v1/reliability", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-stop:
		}
	})
	hung := httptest.NewServer(hungMux)
	defer hung.Close()
	defer close(stop)

	c := fastCoord(t, append([]string{hung.URL}, f.urls...), func(cfg *Config) {
		cfg.RequestTimeout = 75 * time.Millisecond
	})
	res, err := c.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := estOf(res); got != want {
		t.Errorf("post-hang estimate %+v,\nwant single-node %+v", got, want)
	}
	if c.Statz().Reassigns == 0 {
		t.Error("reassigns = 0, want at least one (the hung replica's range must move)")
	}
	var sawReassign bool
	for _, s := range res.ClusterTrail {
		sawReassign = sawReassign || s.Event == "reassign"
	}
	if !sawReassign {
		t.Errorf("trail %+v records no reassign", res.ClusterTrail)
	}
}

// TestClusterHedgeSurvivesBackupMarkedDown reproduces the
// hedge-then-replicas-die window: one primary send is slowed long
// enough for injected probe failures to mark every replica down while
// the hedge race is still in flight. The hedge must go to (and be
// logged against) the backup captured at assign time — re-resolving the
// hedge target after the race would find no live replica and panic.
func TestClusterHedgeSurvivesBackupMarkedDown(t *testing.T) {
	defer faultinject.Reset()
	testutil.CheckGoroutineLeaks(t)
	req := mcReq()
	want := singleNodeRef(t, req)
	f := startFleet(t, 2, nil)
	c := fastCoord(t, f.urls, func(cfg *Config) { cfg.HedgeAfter = 40 * time.Millisecond })

	faultinject.Enable(faultinject.SiteClusterSend, faultinject.Fault{Delay: 300 * time.Millisecond, Times: 1})
	type out struct {
		res *server.Response
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := c.Do(context.Background(), req)
		done <- out{res, err}
	}()
	time.Sleep(10 * time.Millisecond)
	faultinject.Enable(faultinject.SiteClusterProbe, faultinject.Fault{Err: errors.New("injected partition")})
	deadline := time.Now().Add(5 * time.Second)
	for c.Statz().LiveReplicas != 0 {
		if time.Now().After(deadline) {
			t.Fatal("replicas never read down under a fully failing probe")
		}
		time.Sleep(2 * time.Millisecond)
	}
	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	if got := estOf(o.res); got != want {
		t.Errorf("hedged estimate %+v,\nwant %+v", got, want)
	}
	if c.Statz().Hedges == 0 {
		t.Error("hedges = 0, want at least one (the slow primary must be hedged)")
	}
}

// TestClusterPartitionAndHeal drives every probe into failure until the
// whole replica set reads down, checks requests fail with the typed
// no-replicas error, then heals the partition and checks the cluster
// recovers to bit-identical answers.
func TestClusterPartitionAndHeal(t *testing.T) {
	defer faultinject.Reset()
	testutil.CheckGoroutineLeaks(t)
	req := mcReq()
	want := singleNodeRef(t, req)
	f := startFleet(t, 3, nil)
	c := fastCoord(t, f.urls, func(cfg *Config) { cfg.MaxAttempts = 2 })

	faultinject.Enable(faultinject.SiteClusterProbe, faultinject.Fault{Err: errors.New("injected partition")})
	deadline := time.Now().Add(5 * time.Second)
	for c.Statz().LiveReplicas != 0 {
		if time.Now().After(deadline) {
			t.Fatal("replicas never read down under a fully failing probe")
		}
		time.Sleep(2 * time.Millisecond)
	}
	_, err := c.Do(context.Background(), req)
	if !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("partitioned Do error = %v, want ErrNoReplicas", err)
	}

	faultinject.Reset()
	for c.Statz().LiveReplicas != 3 {
		if time.Now().After(deadline) {
			t.Fatal("replicas never healed after the probe fault was disarmed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	res, err := c.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := estOf(res); got != want {
		t.Errorf("post-heal estimate %+v,\nwant %+v", got, want)
	}
}

// TestClusterJobsModeConservation runs the fan-out through the durable
// jobs API twice under one parent idempotency key: the second run must
// re-attach to every sub-job (no lost or duplicated jobs — submitted
// count stays at one job per range) and answer identically.
func TestClusterJobsModeConservation(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	req := mcReq()
	req.IdempotencyKey = "parent-job-1"
	want := singleNodeRef(t, req)
	f := startFleet(t, 2, func(i int) server.Config {
		return server.Config{CheckpointDir: t.TempDir()}
	})
	c := fastCoord(t, f.urls, func(cfg *Config) { cfg.UseJobs = true })

	first, err := c.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if estOf(first) != want || estOf(second) != want {
		t.Errorf("jobs-mode estimates %+v / %+v,\nwant %+v", estOf(first), estOf(second), want)
	}
	var submitted int64
	for _, s := range f.servers {
		if js := s.Statz().Jobs; js != nil {
			submitted += js.Submitted
		}
	}
	if submitted != 2 {
		t.Errorf("replicas accepted %d sub-jobs across two identical fan-outs, want exactly 2 (one per range, re-attached on rerun)", submitted)
	}
}

// TestCoordinatorHTTP exercises the coordinator's own HTTP surface:
// clients talk to it exactly as they would to a single qreld.
func TestCoordinatorHTTP(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	req := mcReq()
	want := singleNodeRef(t, req)
	f := startFleet(t, 3, nil)
	c := fastCoord(t, f.urls, nil)
	front := httptest.NewServer(c.Handler())
	defer front.Close()

	res, err := client.New(front.URL).Reliability(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := estOf(res); got != want {
		t.Errorf("HTTP estimate %+v,\nwant %+v", got, want)
	}
	if len(res.ClusterTrail) == 0 {
		t.Error("HTTP response carries no cluster trail")
	}
	for _, path := range []string{"/healthz", "/readyz", "/statz"} {
		resp, err := http.Get(front.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
	// Unknown wire fields are rejected just like a single qreld does.
	resp, err := http.Post(front.URL+"/v1/reliability", "application/json", strings.NewReader(`{"bogus": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus field status = %d, want 400", resp.StatusCode)
	}
}
