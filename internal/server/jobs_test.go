package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qrel/internal/faultinject"
)

// postJob submits a durable job and decodes the status or error body.
func postJob(t *testing.T, url string, req Request) (int, *JobStatus, *ErrorResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, &st, nil
	}
	var ec ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&ec); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, nil, &ec
}

// getJob polls one job.
func getJob(t *testing.T, url, id string) (int, *JobStatus) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return resp.StatusCode, nil
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, &st
}

// waitJob polls until the job leaves the running state.
func waitJob(t *testing.T, url, id string, timeout time.Duration) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		code, st := getJob(t, url, id)
		if code == http.StatusNotFound {
			t.Fatalf("job %s vanished", id)
		}
		if st.State != JobRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running after %v", id, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestJobLifecycleAndIdempotency(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{CheckpointDir: dir})
	req := Request{
		DB:             "g",
		Query:          "E(x,y) & S(x)",
		Engine:         "monte-carlo-direct",
		Eps:            0.1,
		Delta:          0.1,
		Seed:           7,
		IdempotencyKey: "job-lifecycle-1",
	}

	code, st, _ := postJob(t, ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", code)
	}
	if st.ID == "" || st.State != JobRunning {
		t.Fatalf("submit returned %+v", st)
	}
	final := waitJob(t, ts.URL, st.ID, 10*time.Second)
	if final.State != JobDone || final.Result == nil {
		t.Fatalf("job finished as %+v", final)
	}
	if final.Result.Seed != 7 {
		t.Fatalf("job result Seed = %d, want 7", final.Result.Seed)
	}

	// The synchronous endpoint with identical parameters must agree
	// bit-for-bit — same seed, same stream, same estimate.
	syncReq := req
	syncReq.IdempotencyKey = ""
	code, res, _, _ := post(t, ts.URL, syncReq)
	if code != http.StatusOK {
		t.Fatalf("sync run: status %d", code)
	}
	if res.R != final.Result.R || res.H != final.Result.H || res.Samples != final.Result.Samples {
		t.Fatalf("job result (r=%v h=%v n=%d) != sync result (r=%v h=%v n=%d)",
			final.Result.R, final.Result.H, final.Result.Samples, res.R, res.H, res.Samples)
	}

	// Re-submitting the same idempotency key re-attaches to the finished
	// job: 200, same ID, no new computation.
	code, st2, _ := postJob(t, ts.URL, req)
	if code != http.StatusOK || st2.ID != st.ID || st2.State != JobDone {
		t.Fatalf("resubmit: status %d job %+v", code, st2)
	}
	if got := s.Statz().Jobs.Submitted; got != 1 {
		t.Fatalf("Jobs.Submitted = %d after resubmit, want 1", got)
	}
	if ck := s.Statz().Checkpoints; ck == nil || ck.Written == 0 {
		t.Fatalf("Statz().Checkpoints = %+v, want written > 0", ck)
	}
}

func TestJobSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{CheckpointDir: t.TempDir()})
	code, _, ec := postJob(t, ts.URL, Request{DB: "g", Query: "S(x)"})
	if code != http.StatusBadRequest || ec.Kind != KindBadRequest {
		t.Fatalf("missing key: %d %+v", code, ec)
	}
	code, _, ec = postJob(t, ts.URL, Request{DB: "nope", Query: "S(x)", IdempotencyKey: "k"})
	if code != http.StatusNotFound {
		t.Fatalf("unknown db: %d %+v", code, ec)
	}
}

func TestJobsDisabledWithoutCheckpointDir(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, _, ec := postJob(t, ts.URL, Request{DB: "g", Query: "S(x)", IdempotencyKey: "k"})
	if code != http.StatusNotImplemented || ec.Kind != KindJobsDisabled {
		t.Fatalf("submit with jobs disabled: %d %+v", code, ec)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/abc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("get with jobs disabled: %d", resp.StatusCode)
	}
}

func TestJobGetUnknown(t *testing.T) {
	_, ts := newTestServer(t, Config{CheckpointDir: t.TempDir()})
	if code, _ := getJob(t, ts.URL, "doesnotexist"); code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", code)
	}
}

// TestJobDrainMidJobAndResume is the drain-vs-checkpoint satellite: a
// SIGTERM-style drain cancels a long job mid-flight, the engine takes
// a final boundary snapshot, the journal stays "running", and a new
// server on the same checkpoint dir resumes it to full accuracy — the
// final estimate bit-identical to a never-interrupted run.
func TestJobDrainMidJobAndResume(t *testing.T) {
	req := Request{
		DB:     "g",
		Query:  "E(x,y) & S(x)",
		Engine: "monte-carlo-direct",
		Eval:   "interpreted",
		// One worker over the eight RNG lanes: the lanes run one after
		// another, each claimed through the mc/lane-worker fault site.
		Workers:        1,
		Eps:            0.004,
		Delta:          0.05,
		Seed:           99,
		IdempotencyKey: "drain-resume-1",
	}

	// Reference: the same job run to completion with no interruption.
	refDir := t.TempDir()
	_, refTS := newTestServer(t, Config{CheckpointDir: refDir})
	_, refSt, _ := postJob(t, refTS.URL, req)
	ref := waitJob(t, refTS.URL, refSt.ID, 60*time.Second)
	if ref.State != JobDone {
		t.Fatalf("reference job: %+v", ref)
	}

	// First server: a delay before every lane keeps the job mid-flight —
	// seven lanes, and at least seven delays, are still ahead of it when
	// the first lane's first snapshot is on disk — and then drain hard.
	defer faultinject.Reset()
	faultinject.Enable(faultinject.SiteLaneWorker, faultinject.Fault{Delay: 150 * time.Millisecond})
	dir := t.TempDir()
	s1 := New(Config{CheckpointDir: dir, CheckpointEvery: 10000})
	s1.Register("g", testDB(t, 4, 3))
	ts1 := httptest.NewServer(s1.Handler())
	code, st, _ := postJob(t, ts1.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitSnapshot(t, filepath.Join(dir, st.ID, "ckpt"), 60*time.Second)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s1.Drain(canceled) // deadline already hit: cancels in-flight work
	ts1.Close()
	faultinject.Reset()
	if got := s1.Statz().Jobs.Suspended; got != 1 {
		t.Fatalf("Jobs.Suspended = %d after drain, want 1", got)
	}
	data, err := os.ReadFile(filepath.Join(dir, st.ID, jobJournalName))
	if err != nil {
		t.Fatal(err)
	}
	var journaled JobStatus
	if err := json.Unmarshal(data, &journaled); err != nil {
		t.Fatal(err)
	}
	if journaled.State != JobRunning {
		t.Fatalf("journal state after drain = %q, want running", journaled.State)
	}

	// Second server on the same dir: the recovery scan resumes the job.
	s2 := New(Config{CheckpointDir: dir, CheckpointEvery: 10000})
	s2.Register("g", testDB(t, 4, 3))
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() { ts2.Close(); s2.Close() })
	resumed, err := s2.RecoverJobs()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("RecoverJobs resumed %d jobs, want 1", resumed)
	}
	final := waitJob(t, ts2.URL, st.ID, 60*time.Second)
	if final.State != JobDone || final.Result == nil {
		t.Fatalf("resumed job finished as %+v", final)
	}
	if !final.Result.Resumed {
		t.Fatal("resumed job's result does not report Resumed")
	}
	if final.Result.Degraded {
		t.Fatal("resumed job finished Degraded; want full accuracy")
	}
	if final.Resumes == 0 {
		t.Fatalf("job Resumes = %d, want >= 1", final.Resumes)
	}
	if final.Result.R != ref.Result.R || final.Result.H != ref.Result.H ||
		final.Result.Samples != ref.Result.Samples {
		t.Fatalf("resumed (r=%v h=%v n=%d) != uninterrupted (r=%v h=%v n=%d)",
			final.Result.R, final.Result.H, final.Result.Samples,
			ref.Result.R, ref.Result.H, ref.Result.Samples)
	}
	if got := s2.Statz().Jobs.Recovered; got != 1 {
		t.Fatalf("Jobs.Recovered = %d, want 1", got)
	}
}

// waitSnapshot waits until a committed checkpoint file is in dir.
func waitSnapshot(t *testing.T, dir string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		entries, _ := os.ReadDir(dir) // absent until the job opens its store
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".qckpt") {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no snapshot in %s after %v", dir, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobRecoveryFinalizesFinishedStore: a crash can land between the
// completion snapshot and the journal update. Recovery re-admits the
// job; the engine replays the completed state from the store without
// re-sampling and the job is finalized.
func TestJobRecoveryFinalizesFinishedStore(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{CheckpointDir: dir})
	req := Request{
		DB: "g", Query: "E(x,y) & S(x)", Engine: "monte-carlo-direct",
		Eps: 0.1, Delta: 0.1, Seed: 5, IdempotencyKey: "finalize-1",
	}
	_, st, _ := postJob(t, ts1.URL, req)
	done := waitJob(t, ts1.URL, st.ID, 10*time.Second)
	if done.State != JobDone {
		t.Fatalf("job: %+v", done)
	}

	// Simulate the crash window: rewind the journal to "running".
	journaled := *done
	journaled.State = JobRunning
	journaled.Result = nil
	data, err := json.MarshalIndent(&journaled, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, st.ID, jobJournalName), data, 0o666); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{CheckpointDir: dir})
	s2.Register("g", testDB(t, 4, 3))
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() { ts2.Close(); s2.Close() })
	if n, err := s2.RecoverJobs(); err != nil || n != 1 {
		t.Fatalf("RecoverJobs = %d, %v", n, err)
	}
	final := waitJob(t, ts2.URL, st.ID, 10*time.Second)
	if final.State != JobDone || final.Result == nil {
		t.Fatalf("recovered job: %+v", final)
	}
	if final.Result.R != done.Result.R || final.Result.Samples != done.Result.Samples {
		t.Fatalf("replayed result (r=%v n=%d) != original (r=%v n=%d)",
			final.Result.R, final.Result.Samples, done.Result.R, done.Result.Samples)
	}
}
