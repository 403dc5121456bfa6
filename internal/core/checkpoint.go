package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"qrel/internal/checkpoint"
	"qrel/internal/karpluby"
	"qrel/internal/logic"
	"qrel/internal/mc"
)

// Checkpoint/resume wiring for the estimation engines. The estimators
// are sampling loops; their complete state at a sample (or answer
// tuple) boundary is a handful of counters plus the serializable PRNG
// state, captured here in an engineState envelope and persisted
// through a checkpoint.Store. Because the envelope pins the PRNG
// stream position, a resumed run consumes exactly the stream an
// uninterrupted run would have: for a fixed seed the final estimate is
// bit-identical, so every (ε, δ) guarantee proved for the
// uninterrupted estimator holds verbatim for the resumed one.

// DefaultCheckpointEvery is the sample interval between periodic
// snapshots when CheckpointConfig.Every is zero.
const DefaultCheckpointEvery = 1 << 14

// ErrCheckpointMismatch reports a snapshot that was taken by a
// different computation (engine, seed, accuracy, or query differ) and
// therefore cannot be resumed into this one.
var ErrCheckpointMismatch = errors.New("core: checkpoint does not match this computation")

// CheckpointConfig plumbs a snapshot store into the estimation
// engines. One config (and one store directory) belongs to one logical
// job: the snapshot fingerprint pins engine, seed, accuracy, and query,
// and resuming a store written by a different computation fails with
// ErrCheckpointMismatch.
type CheckpointConfig struct {
	// Store is the snapshot store (optional when Publish or ResumeFrame
	// provide the wire-level plumbing instead).
	Store *checkpoint.Store
	// Every is the number of run samples between periodic snapshots
	// (default DefaultCheckpointEvery), however many lanes and workers
	// the run has: a lane-split run checks each lane every Every/lanes
	// of its samples, rounded up to whole blocks, and commits once the
	// checks since its last commit stand for Every samples, so a crash
	// loses O(Every + workers × that interval) samples. Engines
	// additionally snapshot when a cancellation stops them — the final
	// checkpoint that makes a drained run resumable — and at completion.
	Every int
	// Resume makes the engine load the newest good snapshot and continue
	// from it; with no snapshot present the run starts fresh.
	Resume bool
	// Publish, when non-nil, receives every snapshot as a CRC-framed
	// payload (checkpoint.EncodeFrame) alongside (or instead of) the
	// store write. seq is the run's total sample count at the boundary —
	// monotonically increasing, so a receiver keeps the largest. This is
	// the shipping hook: a serving layer exposes the latest frame to the
	// cluster coordinator, which re-plants it on a survivor via
	// ResumeFrame when the publishing replica dies.
	Publish func(seq int, frame []byte)
	// ResumeFrame, when non-empty, is a shipped CRC-framed snapshot to
	// resume from. It passes the same fingerprint validation as a
	// store-loaded snapshot (ErrCheckpointMismatch on a different
	// computation, ErrCorruptCheckpoint on a bad frame). When both a
	// store snapshot and a ResumeFrame validate, the one with more
	// samples wins — both are valid boundary states of the same
	// deterministic run, and the fresher one conserves more work.
	ResumeFrame []byte
}

// engineState is the JSON payload of one snapshot: the fingerprint of
// the computation plus the loop state at a boundary.
type engineState struct {
	// Fingerprint: a snapshot resumes only into the identical
	// computation. Lanes is the RNG lane count of the run: the estimate
	// is a function of the lane count, so resuming across lane counts
	// would silently change it. Frames of the retired sequential stream
	// say 0, which no run has. The worker count is deliberately NOT part
	// of the fingerprint — it only schedules the lanes.
	Engine string  `json:"engine"`
	Seed   int64   `json:"seed"`
	Eps    float64 `json:"eps"`
	Delta  float64 `json:"delta"`
	Query  string  `json:"query"`
	Lanes  int     `json:"lanes,omitempty"`
	// Planner names the Karp–Luby sample-size rule (karpluby.Planner) of
	// the lineage-karpluby engines: their tuples' sample counts are its
	// output, so a run sized by another rule is not continued.
	Planner string `json:"planner,omitempty"`
	// Stream names the world draw order (mc.WorldStream) of the
	// world-sampling engines: a snapshot's generator states only continue
	// the order that wrote them.
	Stream string `json:"stream,omitempty"`

	// Per-tuple engines (monte-carlo, lineage-karpluby): the number of
	// answer tuples already in HFloat and the accumulators over them.
	// RNG is always the zero state: each tuple re-derives its lanes.
	Tuple   int         `json:"tuple,omitempty"`
	HFloat  float64     `json:"h_float,omitempty"`
	EpsSum  float64     `json:"eps_sum,omitempty"`
	Samples int         `json:"samples,omitempty"`
	RNG     mc.RNGState `json:"rng,omitempty"`

	// Single-loop engines (monte-carlo-direct, monte-carlo-rare): the
	// estimator loop state.
	Loop *mc.LoopState `json:"loop,omitempty"`
}

// ckptRun carries the checkpoint plumbing of one engine invocation.
// A nil *ckptRun (checkpointing off) is valid and inert.
type ckptRun struct {
	cfg     *CheckpointConfig
	head    engineState // fingerprint fields
	resumed bool
}

// newCkptRun opens the checkpoint plumbing for an engine invocation
// and, when cfg.Resume is set, loads and validates the newest good
// snapshot. Returns (nil, nil, nil) when checkpointing is off.
func newCkptRun(cfg *CheckpointConfig, engine string, f logic.Formula, opts Options) (*ckptRun, *engineState, error) {
	if cfg == nil || (cfg.Store == nil && cfg.Publish == nil && len(cfg.ResumeFrame) == 0) {
		return nil, nil, nil
	}
	run := &ckptRun{cfg: cfg, head: fingerprint(engine, f, opts)}
	var best *engineState
	if cfg.Resume && cfg.Store != nil {
		payload, err := cfg.Store.LoadLatest()
		switch {
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			// nothing saved yet: a fresh start is the resume
		case err != nil:
			return nil, nil, err
		default:
			st, err := run.validateSnapshot(payload)
			if err != nil {
				return nil, nil, err
			}
			best = st
		}
	}
	if len(cfg.ResumeFrame) > 0 {
		payload, err := checkpoint.DecodeFrame(cfg.ResumeFrame)
		if err != nil {
			return nil, nil, err
		}
		st, err := run.validateSnapshot(payload)
		if err != nil {
			return nil, nil, err
		}
		// Freshness precedence: both states are sample boundaries of the
		// same deterministic run, so the one further along conserves more
		// work without changing the final answer.
		if best == nil || st.Samples > best.Samples {
			best = st
		}
	}
	run.resumed = best != nil
	return run, best, nil
}

// ValidateResumeFrame synchronously holds a shipped resume frame to
// the fingerprint of the computation (engine, options, query) it is
// about to resume, without running anything. It fails exactly as the
// engine itself would at startup — ErrCorruptCheckpoint on a bad
// frame, ErrCheckpointMismatch on a different computation — so the
// serving layer can reject a doomed resume at admission, before a
// durable job is registered under the request's idempotency key. A
// rejection at admission leaves the key unconsumed: the caller's clean
// retry starts a fresh job instead of re-attaching to a failed one.
func ValidateResumeFrame(frame []byte, engine Engine, f logic.Formula, opts Options) error {
	// The engine fingerprints the normalized options (zero eps/delta
	// replaced by the defaults), so the admission check must too.
	opts = opts.withDefaults()
	run := &ckptRun{head: fingerprint(string(engine), f, opts)}
	payload, err := checkpoint.DecodeFrame(frame)
	if err != nil {
		return err
	}
	_, err = run.validateSnapshot(payload)
	return err
}

// fingerprint is the identity of an engine run that its snapshots
// carry and a resume must match.
func fingerprint(engine string, f logic.Formula, opts Options) engineState {
	st := engineState{
		Engine: engine,
		Seed:   opts.Seed,
		Eps:    opts.Eps,
		Delta:  opts.Delta,
		Query:  fmt.Sprint(f),
		Lanes:  laneCountFor(opts),
	}
	switch {
	case strings.HasPrefix(engine, "lineage-karpluby"):
		st.Planner = karpluby.Planner
	case strings.HasPrefix(engine, "monte-carlo"):
		st.Stream = mc.WorldStream
	}
	return st
}

// validateSnapshot decodes one snapshot payload and holds it to the
// run's fingerprint.
func (r *ckptRun) validateSnapshot(payload []byte) (*engineState, error) {
	var st engineState
	if err := json.Unmarshal(payload, &st); err != nil {
		return nil, fmt.Errorf("%w: undecodable snapshot payload: %v", checkpoint.ErrCorruptCheckpoint, err)
	}
	if st.Engine != r.head.Engine || st.Planner != r.head.Planner || st.Stream != r.head.Stream || st.Seed != r.head.Seed ||
		st.Eps != r.head.Eps || st.Delta != r.head.Delta || st.Query != r.head.Query {
		return nil, fmt.Errorf("%w: snapshot is for engine=%s planner=%q stream=%q seed=%d eps=%v delta=%v query=%q; this run is engine=%s planner=%q stream=%q seed=%d eps=%v delta=%v query=%q",
			ErrCheckpointMismatch, st.Engine, st.Planner, st.Stream, st.Seed, st.Eps, st.Delta, st.Query,
			r.head.Engine, r.head.Planner, r.head.Stream, r.head.Seed, r.head.Eps, r.head.Delta, r.head.Query)
	}
	if st.Lanes != r.head.Lanes {
		return nil, fmt.Errorf("%w: snapshot was taken with %d RNG lanes, this run uses %d (the estimate depends on the lane count; start fresh)",
			ErrCheckpointMismatch, st.Lanes, r.head.Lanes)
	}
	return &st, nil
}

// every returns the periodic snapshot interval.
func (r *ckptRun) every() int {
	if r.cfg.Every > 0 {
		return r.cfg.Every
	}
	return DefaultCheckpointEvery
}

// laneCountFor returns the RNG lane count of an engine run under opts:
// the split's total for a lane-range run (the mc-level method string
// additionally pins the subrange), mc.DefaultLanes otherwise.
func laneCountFor(opts Options) int {
	if opts.LaneRange != nil {
		return opts.LaneRange.Total
	}
	return mc.DefaultLanes
}

// save persists one snapshot, stamping the fingerprint, and publishes
// its framed form to the shipping hook when one is set.
func (r *ckptRun) save(st engineState) error {
	st.Engine, st.Seed, st.Eps, st.Delta, st.Query, st.Lanes, st.Planner, st.Stream =
		r.head.Engine, r.head.Seed, r.head.Eps, r.head.Delta, r.head.Query, r.head.Lanes, r.head.Planner, r.head.Stream
	payload, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("core: marshaling snapshot: %w", err)
	}
	if r.cfg.Publish != nil {
		r.cfg.Publish(st.Samples, checkpoint.EncodeFrame(payload))
	}
	if r.cfg.Store == nil {
		return nil
	}
	return r.cfg.Store.Save(payload)
}

// wasResumed reports whether this run actually restored a snapshot
// (nil-safe).
func (r *ckptRun) wasResumed() bool { return r != nil && r.resumed }

// loopCkpt builds the mc.Ckpt bridging a single-loop estimator to the
// store. Returns nil when checkpointing is off.
func (r *ckptRun) loopCkpt(resume *engineState) *mc.Ckpt {
	if r == nil {
		return nil
	}
	var ls *mc.LoopState
	if resume != nil {
		ls = resume.Loop
	}
	return &mc.Ckpt{
		Every: r.every(),
		Save: func(st mc.LoopState) error {
			return r.save(engineState{Samples: st.Drawn, Loop: &st})
		},
		Resume: ls,
	}
}
