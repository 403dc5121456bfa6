package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"qrel/internal/checkpoint"
	"qrel/internal/core"
)

// Durable jobs: POST /v1/jobs runs a reliability computation that
// survives process death. Each job owns a directory
// CheckpointDir/<id>/ holding a journal (job.json, written atomically)
// and a crash-safe snapshot store (ckpt/) that the engines write
// through core.CheckpointConfig. On startup RecoverJobs re-admits
// every job still journaled as running; because the snapshots pin the
// estimator's PRNG stream, the resumed run finishes bit-identical to
// one that was never interrupted.
//
// The job ID is derived from the client's idempotency key, so a client
// that crashed after submitting can blindly re-POST the same request:
// it re-attaches to the existing job instead of starting a duplicate.

// Job states of JobStatus.State.
const (
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// jobJournalName is the journal file inside a job directory.
const jobJournalName = "job.json"

// JobStatus is the JSON body of GET /v1/jobs/{id} and the on-disk job
// journal.
type JobStatus struct {
	// ID is the job identifier, derived from the idempotency key.
	ID string `json:"id"`
	// State is "running", "done", or "failed".
	State string `json:"state"`
	// Request is the journaled original request; a restart rebuilds the
	// computation from it.
	Request *Request `json:"request,omitempty"`
	// Result is the final estimate, set once State is "done".
	Result *Response `json:"result,omitempty"`
	// Error describes a failed job, set once State is "failed".
	Error *ErrorResponse `json:"error,omitempty"`
	// Resumes counts how many times the job was recovered after a
	// restart or kept resumable through a drain.
	Resumes int `json:"resumes"`
	// CreatedMS / UpdatedMS are Unix-milli journal timestamps.
	CreatedMS int64 `json:"created_unix_ms"`
	UpdatedMS int64 `json:"updated_unix_ms"`
}

// jobID derives the job identifier from the idempotency key.
func jobID(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])[:16]
}

// jobsEnabled reports whether durable jobs are configured.
func (s *Server) jobsEnabled() bool { return s.cfg.CheckpointDir != "" }

// jobDir returns the directory owned by one job.
func (s *Server) jobDir(id string) string { return filepath.Join(s.cfg.CheckpointDir, id) }

// journalJob writes st's journal atomically (write-temp + fsync +
// rename), so a crash mid-update can never leave a torn journal.
// Caller holds jobMu.
func (s *Server) journalJob(st *JobStatus) error {
	st.UpdatedMS = time.Now().UnixMilli()
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return checkpoint.WriteFileAtomic(filepath.Join(s.jobDir(st.ID), jobJournalName), data)
}

// loadJob returns the job's status from memory, falling back to the
// on-disk journal (jobs finished in a previous process live only
// there). Caller holds jobMu.
func (s *Server) loadJob(id string) (*JobStatus, bool) {
	if st, ok := s.jobs[id]; ok {
		return st, true
	}
	data, err := os.ReadFile(filepath.Join(s.jobDir(id), jobJournalName))
	if err != nil {
		return nil, false
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, false
	}
	return &st, true
}

// jobTask rebuilds the pool task for a job from its journaled request
// and attaches the checkpoint store and the completion hook. The job
// context derives from baseCtx only — a disconnecting client must not
// cancel a durable job — and the wall-clock budget is taken verbatim
// from the request (zero = unlimited: durable jobs are the API for
// work that outlives request timeouts).
func (s *Server) jobTask(st *JobStatus) (*task, int, string, error) {
	t, status, kind, err := s.buildTask(st.Request)
	if err != nil {
		return nil, status, kind, err
	}
	t.opts.Budget.Timeout = time.Duration(st.Request.TimeoutMS) * time.Millisecond
	store, err := checkpoint.Open(filepath.Join(s.jobDir(st.ID), "ckpt"), checkpoint.Options{Metrics: &s.ckptMetrics})
	if err != nil {
		return nil, http.StatusInternalServerError, KindEngineFailed, fmt.Errorf("opening checkpoint store: %w", err)
	}
	// Merge rather than overwrite: a lane-range job's buildTask config
	// already carries the shipping hook and any wire resume frame; the
	// store and the wire frame both feed newCkptRun, where the fresher
	// snapshot wins.
	cfg := t.opts.Checkpoint
	if cfg == nil {
		cfg = &core.CheckpointConfig{Every: s.cfg.CheckpointEvery}
		t.opts.Checkpoint = cfg
	}
	cfg.Store = store
	cfg.Resume = true // a fresh store just starts fresh
	if t.ship != nil {
		s.ships[st.ID] = t.ship
	}
	t.ctx = s.baseCtx
	t.onDone = func(t *task) { s.finishJob(st, t) }
	return t, 0, "", nil
}

// finishJob journals a job's outcome from the worker. A job the drain
// canceled is deliberately NOT finalized: the engines took a final
// boundary snapshot when the context fired, so leaving the journal in
// state running makes the restart resume it — at full accuracy —
// instead of serving the degraded partial forever.
func (s *Server) finishJob(st *JobStatus, t *task) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	drained := s.baseCtx.Err() != nil
	completedFully := t.err == nil && !t.res.Degraded
	switch {
	case drained && !completedFully:
		// Anything short of a full completion during a drain — a canceled
		// run, a degraded partial, even an engine error provoked by the
		// dying context — is left resumable rather than finalized.
		st.Resumes++
		s.stats.jobsSuspended.Add(1)
	case t.err != nil:
		st.State = JobFailed
		_, kind := statusFor(t.err)
		st.Error = &ErrorResponse{Error: t.err.Error(), Kind: kind}
		s.stats.jobsFailed.Add(1)
	default:
		st.State = JobDone
		st.Result = toResponse(t.res, time.Now().UnixMilli()-st.CreatedMS)
		if t.ship != nil {
			// Carry the final frame on the result for parity with the
			// synchronous path — a degraded job's remainder stays portable.
			if frame, seq := t.ship.latest(); frame != nil {
				st.Result.Checkpoint, st.Result.CheckpointSeq = frame, seq
			}
		}
		s.stats.jobsDone.Add(1)
	}
	if err := s.journalJob(st); err != nil {
		// The computation finished but its outcome could not be made
		// durable; the journal stays "running" and a restart recomputes
		// (checkpoints make that a cheap replay).
		st.State = JobRunning
		st.Result, st.Error = nil, nil
	}
}

// admitJob places a job task in the bounded queue, honoring draining,
// and journals the running state first so a crash between journal and
// completion is recovered. Caller holds jobMu.
func (s *Server) admitJob(st *JobStatus, t *task) (int, string, error) {
	if err := os.MkdirAll(s.jobDir(st.ID), 0o777); err != nil {
		return http.StatusInternalServerError, KindEngineFailed, err
	}
	if err := s.journalJob(st); err != nil {
		return http.StatusInternalServerError, KindEngineFailed, err
	}
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining.Load() {
		s.stats.drained.Add(1)
		return http.StatusServiceUnavailable, KindDraining, fmt.Errorf("server is draining")
	}
	if !s.admit(t) {
		return http.StatusServiceUnavailable, KindShedding,
			fmt.Errorf("admission queue full (%d queued, %d in flight)", cap(s.tasks), s.cfg.Workers)
	}
	s.jobs[st.ID] = st
	return 0, "", nil
}

// handleJobSubmit is POST /v1/jobs: create a durable job, or re-attach
// to the existing one named by the idempotency key.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled() {
		writeError(w, http.StatusNotImplemented, KindJobsDisabled, "durable jobs are disabled (no checkpoint dir configured)")
		return
	}
	req, status, kind, err := s.decodeRequest(w, r)
	if err != nil {
		writeError(w, status, kind, err.Error())
		return
	}
	if req.IdempotencyKey == "" {
		writeError(w, http.StatusBadRequest, KindBadRequest, "missing \"idempotency_key\"")
		return
	}
	id := jobID(req.IdempotencyKey)

	s.jobMu.Lock()
	if st, ok := s.loadJob(id); ok {
		// Snapshot under the lock: the worker's finishJob may mutate the
		// shared status the instant the lock drops.
		snap := *st
		s.jobMu.Unlock()
		writeJSON(w, jobHTTPStatus(&snap), &snap)
		return
	}
	st := &JobStatus{ID: id, State: JobRunning, Request: req, CreatedMS: time.Now().UnixMilli()}
	t, status, kind, err := s.jobTask(st)
	if err != nil {
		s.jobMu.Unlock()
		writeError(w, status, kind, err.Error())
		return
	}
	status, kind, err = s.admitJob(st, t)
	snap := *st
	s.jobMu.Unlock()
	if err != nil {
		// Admission failed after the journal was written: remove the
		// stillborn job so a retry starts clean.
		_ = os.RemoveAll(s.jobDir(id))
		if status == http.StatusServiceUnavailable {
			s.writeUnavailable(w, kind, err.Error())
			return
		}
		writeError(w, status, kind, err.Error())
		return
	}
	s.stats.jobsSubmitted.Add(1)
	writeJSON(w, http.StatusAccepted, &snap)
}

// handleJobGet is GET /v1/jobs/{id}: poll a job. Running jobs answer
// 202, finished ones 200 with the journaled result or error.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled() {
		writeError(w, http.StatusNotImplemented, KindJobsDisabled, "durable jobs are disabled (no checkpoint dir configured)")
		return
	}
	id := r.PathValue("id")
	s.jobMu.Lock()
	st, ok := s.loadJob(id)
	var snap JobStatus
	if ok {
		snap = *st
	}
	s.jobMu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, KindNotFound, fmt.Sprintf("unknown job %q", id))
		return
	}
	writeJSON(w, jobHTTPStatus(&snap), &snap)
}

// jobHTTPStatus maps a job state to the HTTP status of its status
// responses.
func jobHTTPStatus(st *JobStatus) int {
	if st.State == JobRunning {
		return http.StatusAccepted
	}
	return http.StatusOK
}

// RecoverJobs scans CheckpointDir and re-admits every job whose
// journal is still in state running — jobs interrupted by a crash, a
// SIGKILL, or a drain that canceled them mid-flight. The databases
// jobs reference by name must be Registered first. Finished jobs are
// left on disk and served by GET /v1/jobs/{id} as before. Returns the
// number of jobs resumed; per-job failures (e.g. a journal referencing
// a database no longer registered) mark the job failed rather than
// aborting the scan.
func (s *Server) RecoverJobs() (int, error) {
	if !s.jobsEnabled() {
		return 0, nil
	}
	entries, err := os.ReadDir(s.cfg.CheckpointDir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	resumed := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		s.jobMu.Lock()
		st, ok := s.loadJob(e.Name())
		if !ok || st.State != JobRunning || st.ID != e.Name() {
			s.jobMu.Unlock()
			continue
		}
		st.Resumes++
		t, _, kind, err := s.jobTask(st)
		if err == nil {
			_, kind, err = s.admitJob(st, t)
		}
		if err != nil {
			st.State = JobFailed
			st.Error = &ErrorResponse{Error: fmt.Sprintf("recovery failed: %v", err), Kind: kind}
			_ = s.journalJob(st)
			s.stats.jobsFailed.Add(1)
			s.jobMu.Unlock()
			continue
		}
		resumed++
		s.stats.jobsRecovered.Add(1)
		s.jobMu.Unlock()
	}
	return resumed, nil
}
