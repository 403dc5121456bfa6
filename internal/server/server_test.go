package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"qrel/internal/faultinject"
	"qrel/internal/rel"
	"qrel/internal/testutil"
	"qrel/internal/unreliable"
)

// testDB builds a small graph database with the given number of
// uncertain edge atoms.
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

// newTestServer builds a server + httptest frontend and registers the
// "g" database.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	// Registered before the shutdown cleanup below so the leak check runs
	// after the server (and any others the test built) has closed.
	testutil.CheckGoroutineLeaks(t)
	s := New(cfg)
	s.Register("g", testDB(t, 4, 3))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// post sends one reliability request and decodes the result or error.
func post(t *testing.T, url string, req Request) (int, *Response, *ErrorResponse, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/reliability", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		var out Response
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, &out, nil, resp.Header
	}
	var ec ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&ec); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, nil, &ec, resp.Header
}

func TestReliabilityEndpointBasic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, res, _, _ := post(t, ts.URL, Request{DB: "g", Query: "exists x y . E(x,y)"})
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200", status)
	}
	if res.Engine == "" || res.Guarantee == "" || res.RExact == "" {
		t.Errorf("incomplete response: %+v", res)
	}
	if res.R < 0 || res.R > 1 {
		t.Errorf("reliability %v out of range", res.R)
	}
	// Inline databases work too.
	status, res2, _, _ := post(t, ts.URL, Request{
		DBText: "universe 2\nrel S/1\nS 0 err 1/2\n",
		Query:  "exists x . S(x)",
	})
	if status != http.StatusOK {
		t.Fatalf("inline db status %d, want 200", status)
	}
	if res2.RExact != "1/2" {
		t.Errorf("inline R = %q, want 1/2", res2.RExact)
	}
}

func TestErrorStatusMapping(t *testing.T) {
	defer faultinject.Reset()
	_, ts := newTestServer(t, Config{})
	secondOrder := "existsrel C/1 . exists x . C(x)"
	cases := []struct {
		name   string
		req    Request
		status int
		kind   string
	}{
		{"missing query", Request{DB: "g"}, 400, KindBadRequest},
		{"unknown db", Request{DB: "nope", Query: "S(x)"}, 404, KindNotFound},
		{"both dbs", Request{DB: "g", DBText: "universe 0\n", Query: "S(x)"}, 400, KindBadRequest},
		{"bad query", Request{DB: "g", Query: "exists . ("}, 400, KindBadRequest},
		{"bad inline db", Request{DBText: "universe x\n", Query: "S(x)"}, 400, KindBadRequest},
		{"unknown engine", Request{DB: "g", Query: "S(x)", Engine: "warp-drive"}, 400, KindBadRequest},
		{"bad eps", Request{DB: "g", Query: "S(x)", Eps: 1.5}, 400, KindBadRequest},
		{"budget exceeded", Request{DB: "g", Query: "exists x y . E(x,y)",
			Engine: "world-enum", MaxWorlds: 2}, 413, KindBudget},
		{"infeasible", Request{DB: "g", Query: secondOrder, MaxWorlds: 2}, 422, KindInfeasible},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, ec, _ := post(t, ts.URL, tc.req)
			if status != tc.status {
				t.Fatalf("status %d, want %d (%v)", status, tc.status, ec)
			}
			if ec.Kind != tc.kind {
				t.Errorf("kind %q, want %q", ec.Kind, tc.kind)
			}
		})
	}

	// ErrCanceled → 408: a 1ms budget on a query slow enough to overrun it.
	t.Run("canceled", func(t *testing.T) {
		defer faultinject.Reset()
		faultinject.Enable(faultinject.SiteServerHandle, faultinject.Fault{Delay: 30 * time.Millisecond})
		status, _, ec, _ := post(t, ts.URL, Request{DB: "g", Query: "exists x y . E(x,y)", TimeoutMS: 1})
		if status != http.StatusRequestTimeout {
			t.Fatalf("status %d, want 408 (%v)", status, ec)
		}
		if ec.Kind != KindCanceled {
			t.Errorf("kind %q, want %q", ec.Kind, KindCanceled)
		}
	})

	// ErrEngineFailed → 500: every rung of the qfree ladder crashing.
	t.Run("engine failed", func(t *testing.T) {
		defer faultinject.Reset()
		faultinject.Enable(faultinject.SiteQFree, faultinject.Fault{Panic: "boom"})
		status, _, ec, _ := post(t, ts.URL, Request{DB: "g", Query: "S(x)", Engine: "qfree"})
		if status != http.StatusInternalServerError {
			t.Fatalf("status %d, want 500 (%v)", status, ec)
		}
		if ec.Kind != KindEngineFailed {
			t.Errorf("kind %q, want %q", ec.Kind, KindEngineFailed)
		}
	})
}

// TestShedAtCapacity saturates a 1-worker/1-slot server with slow
// requests and checks the overflow is shed with 503 + Retry-After
// instead of queueing unboundedly.
func TestShedAtCapacity(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	faultinject.Enable(faultinject.SiteServerHandle, faultinject.Fault{Delay: 150 * time.Millisecond})

	const burst = 8
	var (
		mu       sync.Mutex
		ok, shed int
	)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _, ec, hdr := post(t, ts.URL, Request{DB: "g", Query: "exists x y . E(x,y)"})
			mu.Lock()
			defer mu.Unlock()
			switch status {
			case http.StatusOK:
				ok++
			case http.StatusServiceUnavailable:
				shed++
				if hdr.Get("Retry-After") == "" {
					t.Error("503 without Retry-After")
				}
				if ec.Kind != KindShedding {
					t.Errorf("kind %q, want %q", ec.Kind, KindShedding)
				}
			default:
				t.Errorf("unexpected status %d", status)
			}
		}()
	}
	wg.Wait()
	if ok == 0 || shed == 0 {
		t.Fatalf("ok=%d shed=%d, want both nonzero", ok, shed)
	}
	// With 1 worker and 1 queue slot, at most 2 of the burst are ever
	// admitted at once; the rest of the concurrent burst must shed.
	if got := s.Statz(); got.Shed != int64(shed) || got.Accepted != int64(ok) {
		t.Errorf("statz accepted=%d shed=%d, want %d/%d", got.Accepted, got.Shed, ok, shed)
	}
}

// TestBreakerTripsAndRecovers drives the qfree rung into repeated
// panics until its breaker opens (the rung is skipped, not run), then
// heals the engine and checks a half-open probe closes the breaker.
func TestBreakerTripsAndRecovers(t *testing.T) {
	defer faultinject.Reset()
	_, ts := newTestServer(t, Config{Breaker: BreakerConfig{Threshold: 2, Cooldown: 50 * time.Millisecond}})
	faultinject.Enable(faultinject.SiteQFree, faultinject.Fault{Panic: "qfree down"})

	req := Request{DB: "g", Query: "S(x)"} // quantifier-free: ladder starts at qfree
	// Two crashing runs trip the threshold-2 breaker. Both still succeed
	// via the next rung, with the crash recorded in the trail.
	for i := 0; i < 2; i++ {
		status, res, _, _ := post(t, ts.URL, req)
		if status != http.StatusOK {
			t.Fatalf("run %d: status %d, want 200", i, status)
		}
		if len(res.FallbackTrail) == 0 || !strings.Contains(res.FallbackTrail[0].Err, "panicked") {
			t.Fatalf("run %d: trail %v, want a qfree panic step", i, res.FallbackTrail)
		}
		if i == 0 {
			// One crash in: /statz shows the streak building while the
			// breaker is still closed.
			var mid Statz
			getJSON(t, ts.URL+"/statz", &mid)
			if b := mid.Breakers["qfree"]; b.State != breakerClosed || b.ConsecutiveFailures != 1 {
				t.Fatalf("after 1 crash, breaker %+v, want closed with 1 consecutive failure", b)
			}
		}
	}
	// Third run: the breaker is open, so the rung is skipped — the trail
	// records the skip and the armed panic site is never reached.
	status, res, _, _ := post(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200", status)
	}
	if len(res.FallbackTrail) == 0 || res.FallbackTrail[0].Err != "skipped: circuit breaker open" {
		t.Fatalf("trail %v, want a breaker-skip step", res.FallbackTrail)
	}
	var statz Statz
	getJSON(t, ts.URL+"/statz", &statz)
	if b := statz.Breakers["qfree"]; b.State != breakerOpen || b.Trips != 1 || b.ConsecutiveFailures != 2 {
		t.Fatalf("breaker %+v, want open with 1 trip and the streak frozen at 2", b)
	}
	if statz.ReplicaID == "" {
		t.Error("statz replica_id empty, want the hostname-pid default")
	}

	// Heal the engine and wait out the cooldown: the next request is the
	// half-open probe, runs qfree directly, and closes the breaker.
	faultinject.Reset()
	time.Sleep(60 * time.Millisecond)
	status, res, _, _ = post(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("post-recovery status %d, want 200", status)
	}
	if !strings.HasPrefix(res.Engine, "qfree") || len(res.FallbackTrail) != 0 {
		t.Fatalf("post-recovery engine %q trail %v, want qfree with empty trail", res.Engine, res.FallbackTrail)
	}
	getJSON(t, ts.URL+"/statz", &statz)
	if b := statz.Breakers["qfree"]; b.State != breakerClosed || b.ConsecutiveFailures != 0 {
		t.Fatalf("breaker %+v, want closed with the streak reset after the probe", b)
	}
}

// TestBreakerProbeFailureReopens checks the half-open → open edge.
func TestBreakerProbeFailureReopens(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newTestServer(t, Config{Breaker: BreakerConfig{Threshold: 1, Cooldown: 30 * time.Millisecond}})
	faultinject.Enable(faultinject.SiteQFree, faultinject.Fault{Panic: "still down"})
	req := Request{DB: "g", Query: "S(x)"}
	post(t, ts.URL, req)              // trips (threshold 1)
	time.Sleep(40 * time.Millisecond) // cooldown elapses
	post(t, ts.URL, req)              // half-open probe crashes again
	if b := s.breakers.Snapshot()["qfree"]; b.State != breakerOpen || b.Trips != 2 {
		t.Fatalf("breaker %+v, want re-opened with 2 trips", b)
	}
}

// TestDrainFinishesInFlight checks that a drain lets in-flight work
// finish, rejects new work with 503/draining, and flips /readyz.
func TestDrainFinishesInFlight(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newTestServer(t, Config{Workers: 2})
	faultinject.Enable(faultinject.SiteServerHandle, faultinject.Fault{Delay: 150 * time.Millisecond})

	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			status, _, _, _ := post(t, ts.URL, Request{DB: "g", Query: "exists x y . E(x,y)"})
			results <- status
		}()
	}
	time.Sleep(30 * time.Millisecond) // let both requests reach the workers

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Drain(ctx) }()
	time.Sleep(10 * time.Millisecond) // let Drain flip the flag

	// New work is rejected while draining.
	status, _, ec, _ := post(t, ts.URL, Request{DB: "g", Query: "S(x)"})
	if status != http.StatusServiceUnavailable || ec.Kind != KindDraining {
		t.Fatalf("status %d kind %v, want 503/draining", status, ec)
	}
	if code := getStatus(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz %d while draining, want 503", code)
	}
	if code := getStatus(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz %d, want 200 (liveness is not readiness)", code)
	}

	// The in-flight pair still completes successfully.
	for i := 0; i < 2; i++ {
		if status := <-results; status != http.StatusOK {
			t.Errorf("in-flight request %d got %d, want 200", i, status)
		}
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := s.Statz(); got.InFlight != 0 || got.QueueDepth != 0 {
		t.Errorf("statz after drain: %+v, want empty queue and no in-flight", got)
	}
}

// TestDrainDeadlineCancelsInFlight checks the other half of the drain
// contract: when the deadline passes, in-flight computations are
// canceled (answered with 408) rather than stranded, and Drain returns.
func TestDrainDeadlineCancelsInFlight(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newTestServer(t, Config{Workers: 1, DefaultTimeout: 30 * time.Second})
	// Second-order evaluation over 2^16 worlds, held inside the world
	// enumeration until its context ends: the request is in flight when
	// the drain deadline passes, however fast the engine is, and it
	// unwinds through the engine's own cancellation path.
	slow := Request{
		DB:    "slow",
		Query: "existsrel C/1 . (exists x . C(x)) & (forall x y . C(x) & E(x,y) -> C(y))",
	}
	s.Register("slow", testDB(t, 5, 16))
	held := make(chan struct{}, 1)
	faultinject.Enable(faultinject.SiteWorldWorker, faultinject.Fault{Hold: held, Times: 1})

	result := make(chan int, 1)
	go func() {
		status, _, _, _ := post(t, ts.URL, slow)
		result <- status
	}()
	select {
	case <-held:
	case status := <-result:
		t.Fatalf("request finished with %d before reaching the held enumeration", status)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Drain(ctx)
	if err == nil {
		t.Fatal("drain returned nil, want a deadline-hit error")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("drain took %v after a 100ms deadline; in-flight work did not cancel", elapsed)
	}
	if status := <-result; status != http.StatusRequestTimeout {
		t.Errorf("canceled in-flight request got %d, want 408", status)
	}
}

// TestStatzCounters sanity-checks the outcome partition.
func TestStatzCounters(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	post(t, ts.URL, Request{DB: "g", Query: "S(x)"})
	post(t, ts.URL, Request{DB: "g", Query: "exists x y . E(x,y)", Engine: "world-enum", MaxWorlds: 2})
	got := s.Statz()
	if got.Completed != 1 || got.Failed != 1 {
		t.Errorf("completed=%d failed=%d, want 1/1", got.Completed, got.Failed)
	}
	if got.Workers == 0 || got.QueueCapacity == 0 {
		t.Errorf("config echo missing: %+v", got)
	}
	if len(got.Databases) != 1 || got.Databases[0] != "g" {
		t.Errorf("databases %v, want [g]", got.Databases)
	}
}

// getJSON decodes a GET endpoint.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// getStatus returns a GET endpoint's status code.
func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}
