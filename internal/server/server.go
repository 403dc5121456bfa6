// Package server exposes the qrel reliability engines as a
// self-protecting HTTP/JSON service. The design goal is robustness by
// construction: every request runs through a bounded worker pool fed by
// a bounded admission queue (overflow is shed with 503 + Retry-After —
// never an unbounded goroutine), per-request deadlines map onto
// core.Budget so queueing time counts against the caller's allowance,
// the PR 1 typed error taxonomy maps onto HTTP statuses, per-engine
// circuit breakers skip dispatch rungs that keep crashing (with
// half-open probes to recover), and Drain stops admission and finishes
// or cancels in-flight work under a deadline so a SIGTERM never strands
// a request.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qrel/internal/checkpoint"
	"qrel/internal/core"
	"qrel/internal/faultinject"
	"qrel/internal/logic"
	"qrel/internal/mc"
	"qrel/internal/store"
	"qrel/internal/unreliable"
)

// Config tunes the server. The zero value is usable: every field has a
// production-safe default.
type Config struct {
	// Workers is the number of pool workers — the hard bound on
	// concurrent reliability computations. Default 4.
	Workers int
	// QueueDepth is the admission queue capacity; a full queue sheds new
	// requests with 503. Default 64.
	QueueDepth int
	// DefaultTimeout is the per-request wall-clock budget applied when
	// the request does not carry one. Default 10s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps the per-request budget a caller may ask for.
	// Default 60s.
	MaxTimeout time.Duration
	// RetryAfter is the backoff hint attached to 503 responses.
	// Default 1s.
	RetryAfter time.Duration
	// MaxBodyBytes bounds the request body (inline databases included).
	// Default 4 MiB.
	MaxBodyBytes int64
	// Breaker configures the per-engine circuit breakers.
	Breaker BreakerConfig
	// MaxEnumAtoms caps exact world enumeration per request (zero keeps
	// the core default).
	MaxEnumAtoms int
	// CheckpointDir is the root directory for durable jobs: each job gets
	// a journal plus a crash-safe snapshot store under it, and a restart
	// scans it to resume interrupted jobs (see RecoverJobs). Empty
	// disables the /v1/jobs API.
	CheckpointDir string
	// CheckpointEvery is the number of run samples between a job's
	// periodic snapshots, over all of its lanes (zero uses
	// core.DefaultCheckpointEvery; see core.CheckpointConfig.Every).
	CheckpointEvery int
	// StoreDir is the root directory for paged store files that
	// requests may name with the "store" field. The path in the request
	// is resolved strictly underneath it — absolute paths and ".."
	// escapes are rejected. Empty disables the field.
	StoreDir string
	// ReplicaID identifies this server instance in /statz so cluster
	// coordinators and operators can tell replicas apart. Default
	// "<hostname>-<pid>".
	ReplicaID string
	// DefaultEval is the evaluation mode applied to requests that do not
	// pick one ("", "auto", "compiled", or "interpreted"). The modes are
	// bit-identical, so replicas of one cluster may be configured
	// differently — a mixed-version fleet — without breaking lane merges
	// or attestation.
	DefaultEval string
	// ComputeCorrupt, when set, silently perturbs one lane aggregate of
	// every successful lane-range computation before the result (and its
	// attestation digest) is rendered — a persistent Byzantine replica.
	// Chaos/testing hook only: it exists so a cluster harness can run one
	// lying replica in-process (the faultinject registry is process-wide
	// and cannot scope a fault to a single replica) and prove the
	// coordinator's audits catch and quarantine it.
	ComputeCorrupt bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.ReplicaID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "qreld"
		}
		c.ReplicaID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	return c
}

// Server is the reliability service. Create with New, mount Handler on
// an http.Server, and call Drain (then Close) to shut down.
type Server struct {
	cfg      Config
	breakers *Breakers
	stats    stats
	start    time.Time

	tasks       chan *task
	stopWorkers chan struct{}
	workerWG    sync.WaitGroup // pool workers
	taskWG      sync.WaitGroup // admitted, unfinished tasks

	// drainMu makes the draining check-and-admit atomic against Drain,
	// so no task is admitted (taskWG.Add) after Drain began waiting.
	drainMu  sync.RWMutex
	draining atomic.Bool

	// baseCtx cancels every in-flight computation when the drain
	// deadline expires (or on Close).
	baseCtx    context.Context
	baseCancel context.CancelFunc

	dbMu sync.RWMutex
	dbs  map[string]*unreliable.DB

	// storeMu guards the storeEntries map only (keyed by the request's
	// store name). Loading happens under the entry's own lock — a
	// per-name singleflight — so one slow load never blocks requests
	// for other stores. A cached database is revalidated against the
	// file's (mtime, size) on every request, so a store file replaced
	// on disk serves its new contents; a load failure is NOT cached:
	// an operator can replace the file and retry.
	storeMu      sync.Mutex
	storeEntries map[string]*storeEntry

	// Durable-job state (nil maps/zero values when CheckpointDir is
	// unset). jobMu guards jobs and ships; ckptMetrics aggregates
	// snapshot-store counters across every job for /statz. ships holds
	// the live shipped-checkpoint state of lane-range jobs, keyed by job
	// ID (see ship.go).
	jobMu       sync.Mutex
	jobs        map[string]*JobStatus
	ships       map[string]*shipState
	ckptMetrics checkpoint.Metrics
}

// New creates a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:          cfg,
		breakers:     NewBreakers(cfg.Breaker),
		start:        time.Now(),
		tasks:        make(chan *task, cfg.QueueDepth),
		stopWorkers:  make(chan struct{}),
		dbs:          map[string]*unreliable.DB{},
		storeEntries: map[string]*storeEntry{},
		jobs:         map[string]*JobStatus{},
		ships:        map[string]*shipState{},
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.startWorkers()
	return s
}

// Register adds a named database. Registered databases are shared by
// concurrent requests and must not be mutated afterwards.
func (s *Server) Register(name string, db *unreliable.DB) {
	s.dbMu.Lock()
	defer s.dbMu.Unlock()
	s.dbs[name] = db
}

// DatabaseNames lists the registered databases, sorted.
func (s *Server) DatabaseNames() []string {
	s.dbMu.RLock()
	defer s.dbMu.RUnlock()
	names := make([]string, 0, len(s.dbs))
	for n := range s.dbs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// lookup resolves a registered database.
func (s *Server) lookup(name string) (*unreliable.DB, bool) {
	s.dbMu.RLock()
	defer s.dbMu.RUnlock()
	db, ok := s.dbs[name]
	return db, ok
}

// storeEntry caches one store file's loaded database together with
// the file identity (mtime, size) it was loaded from. Each entry has
// its own lock, so a slow load serializes only requests for the same
// store name.
type storeEntry struct {
	mu    sync.Mutex
	db    *unreliable.DB
	mtime time.Time
	size  int64
}

// loadStore resolves a request's store name strictly under StoreDir,
// opens the file (running journal recovery), loads the database, and
// caches it keyed by the file's (mtime, size) so a replaced file is
// reloaded. Returns HTTP status and error kind on failure.
func (s *Server) loadStore(name string) (*unreliable.DB, int, string, error) {
	if s.cfg.StoreDir == "" {
		return nil, http.StatusBadRequest, KindBadRequest, fmt.Errorf("\"store\" is disabled (no -store-dir configured)")
	}
	clean := filepath.Clean(name)
	if clean == "." || filepath.IsAbs(clean) || clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) {
		return nil, http.StatusBadRequest, KindBadRequest, fmt.Errorf("store name %q escapes the store directory", name)
	}
	s.storeMu.Lock()
	e := s.storeEntries[clean]
	if e == nil {
		e = &storeEntry{}
		s.storeEntries[clean] = e
	}
	s.storeMu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	path := filepath.Join(s.cfg.StoreDir, clean)
	fi, statErr := os.Stat(path)
	if e.db != nil {
		// Serve the cache while the file is unchanged — or gone: a
		// loaded store outlives its file (operators may clean up), but
		// a replaced file must invalidate.
		if statErr != nil || (fi.ModTime().Equal(e.mtime) && fi.Size() == e.size) {
			return e.db, 0, "", nil
		}
	}
	if statErr != nil {
		if os.IsNotExist(statErr) {
			return nil, http.StatusNotFound, KindNotFound, fmt.Errorf("unknown store %q", name)
		}
		status, kind := statusFor(statErr)
		return nil, status, kind, fmt.Errorf("opening store %q: %w", name, statErr)
	}
	st, err := store.Open(path, store.Options{})
	if err != nil {
		if os.IsNotExist(err) {
			return nil, http.StatusNotFound, KindNotFound, fmt.Errorf("unknown store %q", name)
		}
		status, kind := statusFor(err)
		return nil, status, kind, fmt.Errorf("opening store %q: %w", name, err)
	}
	defer st.Close()
	db, err := st.LoadDB()
	if err != nil {
		status, kind := statusFor(err)
		return nil, status, kind, fmt.Errorf("loading store %q: %w", name, err)
	}
	// Record the identity after Open: journal recovery may have
	// rewritten the file, and the post-recovery (mtime, size) is what
	// later requests' stats will see.
	if fi2, err := os.Stat(path); err == nil {
		fi = fi2
	}
	e.db, e.mtime, e.size = db, fi.ModTime(), fi.Size()
	return e.db, 0, "", nil
}

// Handler returns the service mux:
//
//	POST /v1/reliability — run a reliability computation
//	POST /v1/jobs        — submit (or re-attach to) a durable job
//	GET  /v1/jobs/{id}   — poll a durable job
//	GET  /v1/jobs/{id}/checkpoint — fetch a job's freshest shipped checkpoint
//	GET  /healthz        — liveness (200 while the process runs)
//	GET  /readyz         — readiness (503 once draining)
//	GET  /statz          — JSON snapshot of queue/breaker/shed state
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/reliability", s.handleReliability)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/checkpoint", s.handleJobCheckpoint)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/statz", s.handleStatz)
	return mux
}

// Drain stops admission and waits for every admitted task to finish.
// If ctx expires first, all in-flight computations are canceled (they
// unwind promptly through the engines' context polling) and Drain keeps
// waiting for the — now fast — completions. On return no task is
// running or queued and the workers have exited; the HTTP listener can
// be shut down and the process can exit 0. Drain is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	first := !s.draining.Swap(true)
	s.drainMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.taskWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline: cancel in-flight work and wait for the unwinding.
		s.baseCancel()
		<-done
		err = fmt.Errorf("server: drain deadline hit; in-flight requests canceled: %w", ctx.Err())
	}
	if first {
		close(s.stopWorkers)
	}
	s.workerWG.Wait()
	return err
}

// Close shuts down immediately: admission stops, in-flight work is
// canceled, workers exit.
func (s *Server) Close() {
	s.baseCancel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Drain(ctx)
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes a one-error JSON body with the given status/kind.
func writeError(w http.ResponseWriter, status int, kind, msg string) {
	writeJSON(w, status, &ErrorResponse{Error: msg, Kind: kind})
}

// writeUnavailable sheds a request with 503 + Retry-After.
func (s *Server) writeUnavailable(w http.ResponseWriter, kind, msg string) {
	retry := s.cfg.RetryAfter
	w.Header().Set("Retry-After", strconv.Itoa(int((retry+time.Second-1)/time.Second)))
	writeJSON(w, http.StatusServiceUnavailable,
		&ErrorResponse{Error: msg, Kind: kind, RetryAfterMS: retry.Milliseconds()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, KindDraining, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Statz())
}

// parseRequest decodes and validates the request body, resolving the
// database and parsing the query. All failures here are the caller's
// fault: 400 or 404, before any queue slot is consumed.
func (s *Server) parseRequest(w http.ResponseWriter, r *http.Request) (*task, int, string, error) {
	req, status, kind, err := s.decodeRequest(w, r)
	if err != nil {
		return nil, status, kind, err
	}
	return s.buildTask(req)
}

// decodeRequest reads and unmarshals the JSON body.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*Request, int, string, error) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, http.StatusBadRequest, KindBadRequest, fmt.Errorf("decoding request: %w", err)
	}
	return &req, 0, "", nil
}

// buildTask validates a decoded request — resolving the database,
// parsing the query, assembling core.Options — and returns the pool
// task. Shared by the synchronous endpoint, job submission, and the
// startup job-recovery scan (which replays journaled requests).
func (s *Server) buildTask(req *Request) (*task, int, string, error) {
	if req.Query == "" {
		return nil, http.StatusBadRequest, KindBadRequest, fmt.Errorf("missing \"query\"")
	}
	var db *unreliable.DB
	nSrc := 0
	for _, set := range []bool{req.DB != "", req.DBText != "", req.Store != ""} {
		if set {
			nSrc++
		}
	}
	if nSrc != 1 {
		return nil, http.StatusBadRequest, KindBadRequest, fmt.Errorf("set exactly one of \"db\", \"db_text\" and \"store\"")
	}
	switch {
	case req.DB != "":
		var ok bool
		if db, ok = s.lookup(req.DB); !ok {
			return nil, http.StatusNotFound, KindNotFound, fmt.Errorf("unknown database %q", req.DB)
		}
	case req.DBText != "":
		var err error
		if db, err = unreliable.ParseDB(strings.NewReader(req.DBText)); err != nil {
			return nil, http.StatusBadRequest, KindBadRequest, fmt.Errorf("parsing db_text: %w", err)
		}
	default:
		var status int
		var kind string
		var err error
		if db, status, kind, err = s.loadStore(req.Store); err != nil {
			return nil, status, kind, err
		}
	}
	q, err := logic.Parse(req.Query, db.A.Voc)
	if err != nil {
		return nil, http.StatusBadRequest, KindBadRequest, fmt.Errorf("parsing query: %w", err)
	}
	if req.Eps < 0 || req.Eps >= 1 || req.Delta < 0 || req.Delta >= 1 {
		return nil, http.StatusBadRequest, KindBadRequest, fmt.Errorf("eps and delta must lie in [0,1)")
	}
	if req.Workers < 0 {
		return nil, http.StatusBadRequest, KindBadRequest, fmt.Errorf("workers must be >= 0")
	}
	// One job's sampling lanes must not oversubscribe the server's own
	// worker pool; the clamp cannot change the estimate (only scheduling
	// depends on the worker count).
	workers := req.Workers
	if workers > s.cfg.Workers {
		workers = s.cfg.Workers
	}
	engine := core.Engine(req.Engine)
	if !core.KnownEngine(engine) {
		return nil, http.StatusBadRequest, KindBadRequest, fmt.Errorf("unknown engine %q", req.Engine)
	}
	if !core.KnownEvalMode(req.Eval) {
		return nil, http.StatusBadRequest, KindBadRequest, fmt.Errorf("unknown eval mode %q", req.Eval)
	}
	eval := req.Eval
	if eval == "" {
		eval = s.cfg.DefaultEval
	}
	if !core.KnownEvalMode(eval) {
		return nil, http.StatusInternalServerError, KindEngineFailed, fmt.Errorf("server misconfigured: unknown default eval mode %q", eval)
	}
	var laneRange *mc.Range
	if req.Lanes != nil {
		if engine != core.EngineMCDirect {
			return nil, http.StatusBadRequest, KindBadRequest,
				fmt.Errorf("\"lanes\" requires engine %q, got %q", core.EngineMCDirect, req.Engine)
		}
		rng := mc.Range{Lo: req.Lanes.Lo, Hi: req.Lanes.Hi, Total: req.Lanes.Total}
		if err := rng.Validate(); err != nil {
			return nil, http.StatusBadRequest, KindBadRequest, err
		}
		laneRange = &rng
	}
	if len(req.Resume) > 0 && laneRange == nil {
		return nil, http.StatusBadRequest, KindBadRequest, fmt.Errorf("\"resume\" requires \"lanes\"")
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	opts := core.Options{
		Eps:          req.Eps,
		Delta:        req.Delta,
		Seed:         req.Seed,
		Eval:         eval,
		Workers:      workers,
		MaxEnumAtoms: s.cfg.MaxEnumAtoms,
		Breaker:      s.breakers,
		LaneRange:    laneRange,
		Budget: core.Budget{
			Timeout:     timeout,
			MaxSamples:  req.MaxSamples,
			MaxBDDNodes: req.MaxBDDNodes,
			MaxWorlds:   req.MaxWorlds,
		},
	}
	if len(req.Resume) > 0 {
		// Reject a doomed resume frame at admission, before a durable job
		// is registered under the request's idempotency key — the engine
		// would fail identically at startup, but by then the failed job
		// would be what every idempotent retry of the key re-attaches to.
		if err := core.ValidateResumeFrame(req.Resume, engine, q, opts); err != nil {
			status, kind := statusFor(err)
			return nil, status, kind, err
		}
	}
	t := &task{db: db, q: q, opts: opts, done: make(chan struct{}), engine: engine}
	if laneRange != nil {
		// Lane-range sub-runs ship their checkpoints and accept shipped
		// resume frames — the wire half of work-conserving reassignment.
		t.ship = &shipState{}
		ship := t.ship
		t.opts.Checkpoint = &core.CheckpointConfig{
			Every:       s.cfg.CheckpointEvery,
			ResumeFrame: req.Resume,
			Publish: func(seq int, frame []byte) {
				s.stats.ckptShipped.Add(1)
				ship.publish(seq, frame)
			},
		}
		if len(req.Resume) > 0 {
			s.stats.resumesReceived.Add(1)
		}
	}
	return t, 0, "", nil
}

// handleReliability is the admission path: parse, admit (or shed), then
// block until the worker finishes the task.
func (s *Server) handleReliability(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, KindBadRequest, "POST required")
		return
	}
	if err := faultinject.Hit(faultinject.SiteServerAdmit); err != nil {
		s.writeUnavailable(w, KindShedding, "injected admission fault: "+err.Error())
		s.stats.shed.Add(1)
		return
	}
	start := time.Now()
	t, status, kind, err := s.parseRequest(w, r)
	if err != nil {
		writeError(w, status, kind, err.Error())
		return
	}

	// The computation context: canceled by the client disconnecting, by
	// the drain deadline, and (inside core) by the budget timeout. The
	// deadline starts here, at admission, so queue wait counts against
	// the caller's allowance.
	ctx, cancel := context.WithTimeout(r.Context(), t.opts.Budget.Timeout)
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()
	t.ctx = ctx

	s.drainMu.RLock()
	if s.draining.Load() {
		s.drainMu.RUnlock()
		s.writeUnavailable(w, KindDraining, "server is draining")
		s.stats.drained.Add(1)
		return
	}
	admitted := s.admit(t)
	s.drainMu.RUnlock()
	if !admitted {
		s.writeUnavailable(w, KindShedding,
			fmt.Sprintf("admission queue full (%d queued, %d in flight)", cap(s.tasks), s.cfg.Workers))
		return
	}

	// The worker closes t.done even if the client goes away; waiting on
	// it (rather than racing r.Context) keeps accounting exact.
	<-t.done
	if t.err != nil {
		status, kind := statusFor(t.err)
		writeError(w, status, kind, t.err.Error())
		return
	}
	resp := toResponse(t.res, time.Since(start).Milliseconds())
	if t.ship != nil {
		// Ship the freshest checkpoint frame back: on a degraded response
		// it is the boundary the run stopped at, and the caller can resume
		// the remainder elsewhere instead of re-drawing it.
		if frame, seq := t.ship.latest(); frame != nil {
			resp.Checkpoint, resp.CheckpointSeq = frame, seq
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
