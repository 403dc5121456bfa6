package server

import (
	"errors"
	"net/http"

	"qrel/internal/checkpoint"
	"qrel/internal/core"
	"qrel/internal/mc"
	"qrel/internal/store"
)

// Request is the JSON body of POST /v1/reliability. Exactly one of DB
// (the name of a database registered with the server) or DBText (an
// inline database in the qrel text format) must be set.
type Request struct {
	// DB names a database registered with the server.
	DB string `json:"db,omitempty"`
	// DBText is an inline unreliable database in the qrel text format.
	DBText string `json:"db_text,omitempty"`
	// Store names a paged store file (mkdb -store) relative to the
	// server's -store-dir. The file is opened with journal recovery,
	// loaded once, and cached; a checksum failure anywhere in it fails
	// the request with kind "corrupt-store" rather than serving an
	// estimate from fabricated tuples.
	Store string `json:"store,omitempty"`
	// Query is the query in qrel syntax.
	Query string `json:"query"`
	// Engine selects an engine ("auto" or empty dispatches on the query
	// class).
	Engine string `json:"engine,omitempty"`
	// Eval selects the sampling evaluation mode: "auto" or empty
	// (compile the query to world-VM bytecode, falling back to the
	// interpreter for shapes that don't compile), "compiled", or
	// "interpreted". The modes are bit-identical for a fixed seed —
	// estimates, checkpoints, and lane digests all match — so replicas
	// of one cluster fan-out may disagree on it freely; the knob exists
	// for throughput comparisons and chaos drills.
	Eval string `json:"eval,omitempty"`
	// Eps, Delta are the randomized-guarantee parameters (defaulted by
	// the engines when zero).
	Eps   float64 `json:"eps,omitempty"`
	Delta float64 `json:"delta,omitempty"`
	// Seed seeds the deterministic RNG of randomized engines.
	Seed int64 `json:"seed,omitempty"`
	// Workers only schedules the fixed mc.DefaultLanes split of a
	// randomized engine's samples: up to this many goroutines drive the
	// lanes, 0 and 1 meaning one. The estimate is bit-identical for any
	// Workers (lanes, not workers, determine it), so callers can vary it
	// freely between runs of the same job. Clamped to the server's own
	// pool width so one job cannot oversubscribe the process.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS is the wall-clock budget in milliseconds. Zero uses the
	// server default; values above the server maximum are clamped. The
	// deadline starts at admission, so time spent queued counts.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxSamples, MaxBDDNodes, MaxWorlds are the remaining core.Budget
	// dimensions (zero = no extra bound).
	MaxSamples  int    `json:"max_samples,omitempty"`
	MaxBDDNodes int    `json:"max_bdd_nodes,omitempty"`
	MaxWorlds   uint64 `json:"max_worlds,omitempty"`
	// IdempotencyKey names a durable job (POST /v1/jobs only). The job ID
	// is derived from it, so re-submitting the same key returns the
	// existing job — running, done, or failed — instead of starting a
	// duplicate computation.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// Lanes restricts the run to the lane subrange [lo,hi) of a
	// total-lane split — a cluster coordinator's sub-request. Requires
	// engine "monte-carlo-direct". The response carries the raw per-lane
	// aggregates (Response.LaneRange) instead of a meaningful whole-run
	// estimate.
	Lanes *mc.Range `json:"lanes,omitempty"`
	// Resume is a shipped checkpoint frame (checkpoint.EncodeFrame over
	// the engine snapshot payload; base64 on the wire) to continue from
	// instead of starting at sample zero — how a coordinator re-plants a
	// dead replica's progress on a survivor. It is fingerprint-checked
	// against this request; a frame from a different computation fails
	// with 409 kind "checkpoint", a corrupt frame likewise. Requires
	// Lanes. On POST /v1/jobs the field is ignored when the idempotency
	// key names an existing job (the job's own store is fresher).
	Resume []byte `json:"resume,omitempty"`
}

// Response is the JSON body of a successful reliability computation.
type Response struct {
	// R, H are float renderings of the reliability and expected error.
	R float64 `json:"r"`
	H float64 `json:"h"`
	// RExact, HExact are exact rationals ("3/4"), present only when the
	// engine's guarantee is exact.
	RExact string `json:"r_exact,omitempty"`
	HExact string `json:"h_exact,omitempty"`
	// Engine names the engine that produced the result; Guarantee is its
	// error semantics ("exact", "relative(eps,delta)", ...).
	Engine    string `json:"engine"`
	Guarantee string `json:"guarantee"`
	// Eps, Delta, Samples describe a randomized guarantee. When Degraded
	// is true, Eps is the honestly widened accuracy the realized sample
	// count supports.
	Eps     float64 `json:"eps,omitempty"`
	Delta   float64 `json:"delta,omitempty"`
	Samples int     `json:"samples,omitempty"`
	// Class is the detected query class.
	Class string `json:"class"`
	// EvalMode reports how a sampling engine evaluated the query per
	// world ("compiled" or "interpreted"); empty for exact engines.
	EvalMode string `json:"eval_mode,omitempty"`
	// Degraded reports that a budget or deadline cut the run short and
	// the guarantee was weakened (but remains valid).
	Degraded bool `json:"degraded"`
	// FallbackTrail lists the dispatch rungs that were tried and
	// abandoned (or skipped by an open circuit breaker) before Engine
	// produced this result.
	FallbackTrail []core.FallbackStep `json:"fallback_trail,omitempty"`
	// Seed echoes the PRNG seed the computation ran under; rerunning with
	// it (same query, database, accuracy) reproduces the estimate
	// bit-for-bit.
	Seed int64 `json:"seed"`
	// Resumed reports that the computation restored a checkpoint and
	// continued from it rather than starting fresh.
	Resumed bool `json:"resumed,omitempty"`
	// LaneRange carries the raw per-lane aggregates of a lane-range
	// sub-request (Request.Lanes); R and H are then partial-range values
	// and only the coordinator's merge is meaningful.
	LaneRange *core.LaneRangeResult `json:"lane_range,omitempty"`
	// LaneDigest is the replica's attestation over LaneRange.Lanes
	// (mc.RangeDigest): the coordinator recomputes the digest over the
	// aggregates it received and refuses the sub-response on mismatch,
	// so wire or memory corruption between the sampling loop and the
	// merge can never reach a served estimate. Present exactly when
	// LaneRange is.
	LaneDigest string `json:"lane_digest,omitempty"`
	// ClusterTrail, on responses assembled by a cluster coordinator,
	// records where each lane range ran and every retry, hedge, and
	// reassignment — the cross-replica analogue of FallbackTrail.
	ClusterTrail []ClusterStep `json:"cluster_trail,omitempty"`
	// Checkpoint is the latest checkpoint frame the run published
	// (base64 on the wire), present on lane-range responses when the
	// server ships checkpoints. On a degraded response it is the sample
	// boundary the run stopped at, so the caller can resume the
	// remainder elsewhere instead of re-drawing. CheckpointSeq is the
	// total sample count the frame captures.
	Checkpoint    []byte `json:"checkpoint,omitempty"`
	CheckpointSeq int    `json:"checkpoint_seq,omitempty"`
	// ElapsedMS is the server-side wall-clock time in milliseconds,
	// including queueing.
	ElapsedMS int64 `json:"elapsed_ms"`
}

// ClusterStep is one event in a cluster coordinator's fan-out or proxy.
// The ordered trail is the cross-replica analogue of FallbackTrail: it
// tells the operator how the cluster degraded and recovered without
// changing what it computed.
type ClusterStep struct {
	// Replica is the replica the event concerns (its base URL).
	Replica string `json:"replica"`
	// Lo, Hi delimit the lane range involved; [0,0) for whole-request
	// events such as proxying.
	Lo int `json:"lo,omitempty"`
	Hi int `json:"hi,omitempty"`
	// Event classifies the step. Dispatch: "assign", "proxy", "retry",
	// "hedge", "reassign", "breaker-skip", "quarantine-skip", "done".
	// Shipping: "resume" (the range was re-planted from a shipped
	// checkpoint), "resume-rejected" (the replica refused it and the
	// range restarted clean). Integrity: "attest", "attest-fail",
	// "audit-ok", "audit-mismatch", "audit-liar", "audit-replant",
	// "audit-unresolved", "audit-skipped", and the health transitions
	// "suspect", "quarantine", "probation", "readmit".
	Event string `json:"event"`
	// Err carries the failure that triggered a retry or reassignment.
	Err string `json:"err,omitempty"`
	// Source and Seq carry the provenance of "resume" and
	// "resume-rejected" events: the replica whose shipped checkpoint was
	// re-planted (or rejected) and its sample-count sequence. Audit
	// events reuse Source for the counterparty replica.
	Source string `json:"source,omitempty"`
	Seq    int    `json:"seq,omitempty"`
	// Digest is the lane-aggregate attestation digest involved in
	// "attest" and audit events.
	Digest string `json:"digest,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	// Error is a one-line human-readable cause.
	Error string `json:"error"`
	// Kind is the machine-readable failure class: "bad-request",
	// "not-found", "canceled", "budget-exceeded", "infeasible",
	// "engine-failed", "shedding", or "draining".
	Kind string `json:"kind"`
	// RetryAfterMS echoes the Retry-After header for "shedding" and
	// "draining" responses.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// Failure kinds of ErrorResponse.Kind.
const (
	KindBadRequest   = "bad-request"
	KindNotFound     = "not-found"
	KindCanceled     = "canceled"
	KindBudget       = "budget-exceeded"
	KindInfeasible   = "infeasible"
	KindEngineFailed = "engine-failed"
	KindShedding     = "shedding"
	KindDraining     = "draining"
	KindCheckpoint   = "checkpoint"
	KindJobsDisabled = "jobs-disabled"
	KindCorruptStore = "corrupt-store"
)

// statusFor maps the PR 1 typed error taxonomy onto HTTP statuses:
// ErrCanceled→408, ErrBudgetExceeded→413, ErrInfeasible→422,
// ErrEngineFailed→500. Anything else out of the runtime is an
// input-validation failure and maps to 400.
func statusFor(err error) (int, string) {
	switch {
	case errors.Is(err, core.ErrCheckpointMismatch), errors.Is(err, checkpoint.ErrCorruptCheckpoint),
		errors.Is(err, mc.ErrResumeMismatch):
		return http.StatusConflict, KindCheckpoint
	case errors.Is(err, store.ErrCorruptPage):
		// Corruption in a stored database is the server's data going
		// bad, not the caller's input: a 500 the operator must look at.
		return http.StatusInternalServerError, KindCorruptStore
	case errors.Is(err, core.ErrCanceled):
		return http.StatusRequestTimeout, KindCanceled
	case errors.Is(err, core.ErrBudgetExceeded):
		return http.StatusRequestEntityTooLarge, KindBudget
	case errors.Is(err, core.ErrInfeasible):
		return http.StatusUnprocessableEntity, KindInfeasible
	case errors.Is(err, core.ErrEngineFailed):
		return http.StatusInternalServerError, KindEngineFailed
	default:
		return http.StatusBadRequest, KindBadRequest
	}
}

// toResponse renders a core.Result on the wire.
func toResponse(res core.Result, elapsedMS int64) *Response {
	out := &Response{
		R:             res.RFloat,
		H:             res.HFloat,
		Engine:        res.Engine,
		Guarantee:     res.Guarantee.String(),
		Eps:           res.Eps,
		Delta:         res.Delta,
		Samples:       res.Samples,
		Class:         res.Class.String(),
		EvalMode:      res.EvalMode,
		Degraded:      res.Degraded,
		Seed:          res.Seed,
		Resumed:       res.Resumed,
		FallbackTrail: res.FallbackTrail,
		LaneRange:     res.LaneRange,
		ElapsedMS:     elapsedMS,
	}
	if res.R != nil {
		out.RExact = res.R.RatString()
	}
	if res.H != nil {
		out.HExact = res.H.RatString()
	}
	if lr := res.LaneRange; lr != nil {
		// Attest the aggregates as rendered: anything that perturbs them
		// between here and the coordinator's merge breaks the digest.
		out.LaneDigest = mc.RangeDigest(lr.Lanes)
	}
	return out
}
