package cluster

// Tests for the work-conserving recovery layer: shipped-checkpoint
// validation, mid-run replica kills resumed from shipped state, the
// resume-rejected clean-restart fallback, and coordinator crash
// recovery through the fan-out journal.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qrel/internal/checkpoint"
	"qrel/internal/core"
	"qrel/internal/faultinject"
	"qrel/internal/mc"
	"qrel/internal/server"
	"qrel/internal/server/client"
	"qrel/internal/testutil"
)

// slowReq is a run long enough to kill a replica in the middle of.
func slowReq() server.Request {
	r := mcReq()
	r.Eps = 0.004
	r.Seed = 77
	return r
}

// shipFleet boots n jobs-enabled replicas with a dense checkpoint
// cadence and a coordinator in jobs mode with fast checkpoint polling.
func shipFleet(t *testing.T, n int, mutate func(*Config)) (*fleet, *Coordinator) {
	t.Helper()
	f := startFleet(t, n, func(i int) server.Config {
		return server.Config{CheckpointDir: t.TempDir(), CheckpointEvery: 1000}
	})
	c := fastCoord(t, f.urls, func(cfg *Config) {
		cfg.UseJobs = true
		cfg.MaxAttempts = 8
		cfg.JobPoll = time.Millisecond
		cfg.CheckpointPoll = time.Millisecond
		if mutate != nil {
			mutate(cfg)
		}
	})
	return f, c
}

// slowSaves makes every checkpoint save of the fleet's durable jobs
// take d, through the SiteCkptRename fault: the frame a lane publishes
// just before saving stays the freshest for at least d, and a run
// cannot finish before its saves have, so a run that waitShipped
// watches ships its frames before it ends, at any sampler speed.
func slowSaves(t *testing.T, d time.Duration) {
	t.Helper()
	faultinject.Enable(faultinject.SiteCkptRename, faultinject.Fault{Delay: d})
	t.Cleanup(faultinject.Reset)
}

// waitShipped polls until the coordinator has accepted n shipped
// frames.
func waitShipped(t *testing.T, c *Coordinator, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Statz().CheckpointsShipped < n {
		if time.Now().After(deadline) {
			t.Fatalf("no %d shipped checkpoints before the run finished (got %d)", n, c.Statz().CheckpointsShipped)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// validFrame builds a shipped frame that passes core.CheckRangeFrame
// for (seed, rg).
func validFrame(seed int64, rg mc.Range, samples int) []byte {
	n := rg.Hi - rg.Lo
	return snapshotFrame(seed, rg.Total, samples, &mc.LoopState{
		Method:    mc.RangeMethod(mc.MeanMethod, rg),
		Drawn:     samples,
		LaneCount: n,
		Lanes:     make([]mc.LaneState, n),
	})
}

// snapshotFrame frames a monte-carlo-direct snapshot payload with the
// fields the coordinator checks, as a replica would ship it.
func snapshotFrame(seed int64, lanes, samples int, loop *mc.LoopState) []byte {
	payload, err := json.Marshal(map[string]any{
		"engine": string(core.EngineMCDirect), "seed": seed, "lanes": lanes, "samples": samples, "loop": loop,
	})
	if err != nil {
		panic(err)
	}
	return checkpoint.EncodeFrame(payload)
}

// TestCheckShipped pins the coordinator-side frame validation: the
// accepting cases (a multi-lane range, and a one-lane range, whose
// frame carries LaneCount 1), and every malformed shape rejecting with
// an error (never a panic) — among them the LaneCount-0 schema of the
// retired sequential stream, whatever the range.
func TestCheckShipped(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rg := mc.Range{Lo: 4, Hi: 8, Total: 8}
	good := validFrame(42, rg, 1000)
	if seq, err := core.CheckRangeFrame(good, 42, rg); err != nil || seq != 1000 {
		t.Fatalf("CheckRangeFrame(valid) = (%d, %v), want (1000, nil)", seq, err)
	}
	one := mc.Range{Lo: 0, Hi: 1, Total: 8}
	if seq, err := core.CheckRangeFrame(validFrame(42, one, 7), 42, one); err != nil || seq != 7 {
		t.Fatalf("CheckRangeFrame(one-lane range) = (%d, %v), want (7, nil)", seq, err)
	}
	legacy := snapshotFrame(42, 8, 7, &mc.LoopState{Method: mc.RangeMethod(mc.MeanMethod, one), Drawn: 7})

	badCRC := append([]byte(nil), good...)
	badCRC[len(badCRC)/2] ^= 0xff
	otherRange := mc.Range{Lo: 0, Hi: 4, Total: 8}
	// A frame from a build that drew one Float64 per atom per sample.
	scalar := func() []byte {
		payload, _ := checkpoint.DecodeFrame(good)
		return checkpoint.EncodeFrame(bytes.Replace(payload, []byte(mc.MeanMethod), []byte("hoeffding"), 1))
	}()
	cases := []struct {
		name  string
		frame []byte
		seed  int64
		rg    mc.Range
	}{
		{"empty", nil, 42, rg},
		{"truncated", good[:len(good)/2], 42, rg},
		{"bad-crc", badCRC, 42, rg},
		{"not-json", checkpoint.EncodeFrame([]byte("notjson")), 42, rg},
		{"wrong-seed", good, 43, rg},
		{"wrong-range", good, 42, otherRange},
		{"wrong-total", good, 42, mc.Range{Lo: 4, Hi: 8, Total: 16}},
		{"legacy-multi-lane", legacy, 42, rg},
		{"legacy-single-lane", legacy, 42, one},
		{"other-world-stream", scalar, 42, rg},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if seq, err := core.CheckRangeFrame(tc.frame, tc.seed, tc.rg); err == nil {
				t.Errorf("CheckRangeFrame accepted a %s frame (seq %d)", tc.name, seq)
			}
		})
	}
}

// TestMergeRefusesOtherWorldStream: a replica of a build that draws
// its worlds in another order reports another estimator method with
// its lane aggregates; the coordinator refuses the fan-out rather than
// splice its lanes with this build's.
func TestMergeRefusesOtherWorldStream(t *testing.T) {
	ranges := []mc.Range{{Lo: 0, Hi: 4, Total: mc.DefaultLanes}, {Lo: 4, Hi: 8, Total: mc.DefaultLanes}}
	subs := make([]*server.Response, len(ranges))
	for i, rg := range ranges {
		subs[i] = &server.Response{LaneRange: &core.LaneRangeResult{Range: rg, Method: mc.MeanMethod}}
	}
	subs[1].LaneRange.Method = "hoeffding"
	_, err := (&Coordinator{}).merge(mcReq(), ranges, subs, nil, time.Now())
	if err == nil || !strings.Contains(err.Error(), "hoeffding") {
		t.Fatalf("merge of a foreign-stream range: err = %v, want a refusal naming its method", err)
	}
}

// TestTransientTruncatedBody pins the retry classification of a
// response body severed mid-JSON: the decode failure is not an
// APIError, so the coordinator must treat it as transient and reassign
// the range — a replica that died while streaming its answer is
// exactly a dead replica.
func TestTransientTruncatedBody(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	req := mcReq()
	want := singleNodeRef(t, req)

	// A "replica" that reports ready but truncates every answer body.
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	mux.HandleFunc("/v1/reliability", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", "4096")
		fmt.Fprint(w, `{"r": 0.5, "h": 0.`)
	})
	trunc := httptest.NewServer(mux)
	defer trunc.Close()

	// The classification itself: the client surfaces the truncation as a
	// plain decode error, which transient() must retry.
	_, err := client.New(trunc.URL).Reliability(context.Background(), req)
	if err == nil {
		t.Fatal("truncated body decoded without error")
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		t.Fatalf("truncated body surfaced as APIError %v; the transient default no longer covers it", err)
	}
	if !transient(context.Background(), err) {
		t.Fatalf("transient(%v) = false; a truncated body must be retried", err)
	}

	// End to end: a fan-out with the truncating replica in the ring must
	// move its range to the healthy replica and still answer
	// bit-identically.
	f := startFleet(t, 1, nil)
	c := fastCoord(t, append([]string{trunc.URL}, f.urls...), nil)
	res, err := c.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := estOf(res); got != want {
		t.Errorf("estimate with a truncating replica %+v,\nwant %+v", got, want)
	}
}

// TestClusterShipResume is the work-conservation drill: a replica is
// hard-killed mid-estimation after shipping checkpoints; the survivor
// must resume the dead range from the shipped state (a resume event
// with a positive sequence in the trail) and the merged answer must be
// bit-identical to an unkilled single-node run.
func TestClusterShipResume(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	req := slowReq()
	want := singleNodeRef(t, req)
	f, c := shipFleet(t, 2, nil)
	slowSaves(t, 2*time.Millisecond)

	req.IdempotencyKey = "ship-resume-1"
	type out struct {
		res *server.Response
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := c.Do(context.Background(), req)
		done <- out{res, err}
	}()
	waitShipped(t, c, 3)
	time.Sleep(3 * time.Millisecond)
	f.kill(0)
	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	if got := estOf(o.res); got != want {
		t.Errorf("post-kill estimate %+v,\nwant single-node %+v", got, want)
	}
	st := c.Statz()
	if st.CheckpointsShipped == 0 || st.Resumes == 0 {
		t.Errorf("shipped=%d resumes=%d, want both > 0", st.CheckpointsShipped, st.Resumes)
	}
	maxSeq := 0
	for _, s := range o.res.ClusterTrail {
		if s.Event == "resume" && s.Seq > maxSeq {
			maxSeq = s.Seq
		}
	}
	if !o.res.Resumed || maxSeq == 0 {
		t.Errorf("resumed=%v maxSeq=%d: the killed range was not resumed from shipped state (trail %+v)",
			o.res.Resumed, maxSeq, o.res.ClusterTrail)
	}
}

// TestClusterResumeRejectedCleanRestart arms the ckpt-ship fault, which
// corrupts every shipped frame's fingerprint in flight: the survivor
// must reject the planted resume at admission (409, before any durable
// job is registered under the sub-key) and the coordinator must fall
// back to a clean restart with the bit-identical answer — corruption
// costs work, never correctness.
func TestClusterResumeRejectedCleanRestart(t *testing.T) {
	defer faultinject.Reset()
	testutil.CheckGoroutineLeaks(t)
	req := slowReq()
	want := singleNodeRef(t, req)
	f, c := shipFleet(t, 2, nil)

	slowSaves(t, 2*time.Millisecond)
	faultinject.Enable(faultinject.SiteClusterCkptShip, faultinject.Fault{Err: fmt.Errorf("injected frame corruption")})
	req.IdempotencyKey = "ship-reject-1"
	type out struct {
		res *server.Response
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := c.Do(context.Background(), req)
		done <- out{res, err}
	}()
	waitShipped(t, c, 3)
	time.Sleep(3 * time.Millisecond)
	f.kill(0)
	o := <-done
	faultinject.Reset()
	if o.err != nil {
		t.Fatal(o.err)
	}
	if got := estOf(o.res); got != want {
		t.Errorf("post-rejection estimate %+v,\nwant single-node %+v", got, want)
	}
	rejected := false
	for _, s := range o.res.ClusterTrail {
		if s.Event == "resume-rejected" {
			rejected = true
		}
	}
	if !rejected || c.Statz().ResumesRejected == 0 {
		t.Errorf("trail rejected=%v statz=%d: the tampered frame was not replica-rejected (trail %+v)",
			rejected, c.Statz().ResumesRejected, o.res.ClusterTrail)
	}
}

// TestCoordinatorCrashRecovery is the coordinator-loss drill: a keyed
// journaled fan-out is abandoned mid-run, a successor coordinator on
// the same journal dir recovers it to completion, a re-POST of the key
// is served the journaled result bit-identically, and exactly one
// durable sub-job per range was ever submitted (recovery re-attaches).
func TestCoordinatorCrashRecovery(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	req := slowReq()
	want := singleNodeRef(t, req)
	jdir := t.TempDir()
	f, first := shipFleet(t, 2, func(cfg *Config) { cfg.JournalDir = jdir })

	req.IdempotencyKey = "crash-recovery-1"
	dctx, cancel := context.WithCancel(context.Background())
	type out struct {
		res *server.Response
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := first.Do(dctx, req)
		done <- out{res, err}
	}()
	waitShipped(t, first, 2)
	cancel() // the crash: the journal record stays running, the sub-jobs keep going
	<-done
	first.Close()

	second := fastCoord(t, f.urls, func(cfg *Config) {
		cfg.UseJobs = true
		cfg.MaxAttempts = 8
		cfg.JobPoll = time.Millisecond
		cfg.CheckpointPoll = time.Millisecond
		cfg.JournalDir = jdir
	})
	n, err := second.Recover(context.Background())
	if err != nil || n != 1 {
		t.Fatalf("Recover = (%d, %v), want (1, nil)", n, err)
	}
	res, err := second.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := estOf(res); got != want {
		t.Errorf("recovered estimate %+v,\nwant single-node %+v", got, want)
	}
	var submitted int64
	for _, s := range f.servers {
		if js := s.Statz().Jobs; js != nil {
			submitted += js.Submitted
		}
	}
	if submitted != 2 {
		t.Errorf("replicas accepted %d sub-jobs across crash and recovery, want exactly 2 (one per range)", submitted)
	}

	// Key reuse with a different computation must recompute, not serve
	// the journaled result of the old one.
	reused := req
	reused.Seed = req.Seed + 1
	res2, err := second.Do(context.Background(), reused)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Seed != reused.Seed {
		t.Errorf("reused key served the journaled result of seed %d, want a fresh run with seed %d", res2.Seed, reused.Seed)
	}
}

// TestJournalWriteFailureNonFatal arms the journal-crash fault (one
// torn, failed journal write): the fan-out must answer bit-identically
// anyway — the journal is a recovery accelerator, never in the
// correctness path — and the torn file must read as absent to Recover.
func TestJournalWriteFailureNonFatal(t *testing.T) {
	defer faultinject.Reset()
	testutil.CheckGoroutineLeaks(t)
	req := mcReq()
	want := singleNodeRef(t, req)
	jdir := t.TempDir()
	f, c := shipFleet(t, 2, func(cfg *Config) { cfg.JournalDir = jdir })
	_ = f

	faultinject.Enable(faultinject.SiteClusterJournalCrash, faultinject.Fault{Err: fmt.Errorf("injected journal crash"), Times: 1})
	req.IdempotencyKey = "journal-torn-1"
	res, err := c.Do(context.Background(), req)
	faultinject.Reset()
	if err != nil {
		t.Fatal(err)
	}
	if got := estOf(res); got != want {
		t.Errorf("estimate under a torn journal write %+v,\nwant %+v", got, want)
	}
	if c.Statz().JournalErrors == 0 {
		t.Error("journal_errors = 0, want at least the armed torn write")
	}
	n, err := c.Recover(context.Background())
	if err != nil || n != 0 {
		t.Errorf("Recover over a completed journal = (%d, %v), want (0, nil)", n, err)
	}
}
