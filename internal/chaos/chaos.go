// Package chaos is a seeded, fully deterministic chaos campaign engine
// for the reliability stack. From a single seed it plans a randomized
// schedule of fault activations across every registered faultinject
// site — injected errors, forced panics, delays, disk faults on the
// checkpoint commit protocol, and seeded probabilistic variants — and
// drives a mixed workload of generated (A, mu, psi) instances through
// the core dispatch ladder and a live in-process qreld server (plain
// requests, durable jobs, drains, restarts, crash-window journal
// rewinds).
//
// After every action the campaign checks invariants against a
// differential oracle: the nine engines all compute or approximate the
// same quantity, so the exact engines must agree bit-for-bit on the
// big.Rat reliability, and the randomized engines must land within
// their (honestly widened) eps of the exact value. Failures under
// injected faults must stay inside the typed error taxonomy, resumed
// runs must be bit-identical to uninterrupted ones, no durable job may
// be lost or double-finalized across a drain or restart, circuit
// breakers must re-close once faults clear, and the campaign must leak
// neither goroutines nor checkpoint temp files.
//
// Reproducibility contract: the fault schedule is a pure function of
// Config (hash it via Plan.Hash, reported as Report.ScheduleHash), and
// the per-invariant verdicts are deterministic for a fixed seed — the
// per-site randomness rides on splitmix64/xoshiro streams derived from
// the campaign seed, never on wall-clock time. Tallies that depend on
// scheduling (how many jobs were suspended mid-flight, say) may vary;
// the pass/fail verdict per invariant may not.
//
// The campaign arms the process-global faultinject registry and its
// hit/fire counters; do not run it concurrently with other fault
// injection users.
package chaos

import (
	"time"

	"qrel/internal/faultinject"
)

// Config parameterizes one campaign. Seed fully determines the
// schedule; Dir is scratch space for checkpoint stores and job
// directories and must be private to the campaign (the temp-file leak
// invariant scans it).
type Config struct {
	// Seed derives the entire campaign: instance generation, fault
	// schedule, and every engine seed.
	Seed int64
	// Steps is the number of campaign steps (default DefaultSteps).
	Steps int
	// Sites restricts the fault schedule to a subset of
	// faultinject.Sites(); empty schedules every site.
	Sites []string
	// Dir is the campaign scratch directory (required).
	Dir string
	// EpsSkew, when nonzero, multiplies the eps each randomized engine
	// is allowed — an intentionally wrong oracle. Setting it well below
	// 1 (say 0.01) must make the campaign fail, which is how the
	// harness proves it can detect accuracy violations at all.
	EpsSkew float64
	// Duration, when nonzero, stops starting new steps after it
	// elapses; the report then covers the steps that ran.
	Duration time.Duration
	// Logf receives progress lines (nil discards them).
	Logf func(format string, args ...any)
}

// DefaultSteps is the campaign length when Config.Steps is zero.
const DefaultSteps = 8

// Invariant names, the keys of Report.Invariants and Report.Verdicts.
const (
	// InvExactAgree: every exact engine agrees bit-for-bit (big.Rat
	// equality) with the world-enumeration reference.
	InvExactAgree = "exact-agreement"
	// InvEpsBound: every randomized estimate lands within its reported
	// (possibly honestly widened) eps of the exact value.
	InvEpsBound = "eps-bound"
	// InvTypedErrors: every failure under fault is a typed taxonomy
	// error or carries the injected sentinel; service error bodies
	// carry a failure kind.
	InvTypedErrors = "typed-errors"
	// InvResume: a run interrupted by budget (with disk faults armed on
	// the snapshot store) and resumed is bit-identical to an
	// uninterrupted run with the same seed.
	InvResume = "resume-bit-identical"
	// InvJobs: durable jobs are conserved across drains, restarts, and
	// crash-window journal rewinds — none lost, none double-finalized,
	// resubmits idempotent, resumed results equal the uninterrupted
	// reference.
	InvJobs = "jobs-durable"
	// InvBreaker: circuit breakers tripped by injected crashes re-close
	// once the faults clear.
	InvBreaker = "breaker-reclose"
	// InvGoroutines: no goroutine outlives the campaign.
	InvGoroutines = "goroutine-leaks"
	// InvTmpFiles: no checkpoint temp file survives the campaign.
	InvTmpFiles = "ckpt-tmp-files"
	// InvCluster: a coordinator-merged estimate is bit-identical to the
	// single-node lane-split run — across replica counts, after mid-run
	// replica kills and reassignment, across coordinator restarts, and
	// with sub-jobs conserved (one durable job per lane range, reruns
	// re-attach). Lane-quota conservation rides along: the merge rejects
	// any aggregate set whose quotas disagree with the seeded plan.
	InvCluster = "cluster-bit-identity"
	// InvClusterResume: a fan-out that resumes a lane range from a
	// shipped checkpoint — after a mid-run replica kill, a corrupted
	// shipped frame, a torn journal write, or a coordinator crash and
	// journal recovery — still answers byte-for-byte what an unkilled
	// single-node run answers. A rejected frame degrades to a clean
	// restart (resume-rejected in the trail), never an error or a wrong
	// estimate.
	InvClusterResume = "cluster-resume-bit-identity"
	// InvClusterWork: recovery is work-conserving. After a replica kill
	// the survivor resumes from a shipped sequence number S > 0 that is
	// a true prefix of the dead replica's on-disk progress P, with the
	// waste P - S bounded by a few shipping intervals; after a
	// coordinator crash, recovery re-attaches to the journaled sub-jobs
	// instead of submitting duplicates.
	InvClusterWork = "cluster-work-conservation"
	// InvClusterAudit: a sampled cross-replica audit catches a corrupted
	// lane-range result — the perturbed aggregates never reach a served
	// estimate. Either the range is repaired from a majority and the
	// merged answer stays bit-identical to the single-node reference, or
	// the fan-out is refused with an audit error; a silently wrong
	// estimate is the one forbidden outcome. Audits surviving an armed
	// cluster/audit fault (falling to another candidate or skipping
	// without a false quarantine) ride along.
	InvClusterAudit = "cluster-audit-detects"
	// InvClusterQuarantine: a persistently lying replica converges to
	// quarantined — drained from fan-outs and proxying — while the
	// coordinator keeps serving estimates bit-identical to the
	// single-node reference from the honest survivors, with the audit
	// evidence recorded in both the cluster trail and the fan-out
	// journal.
	InvClusterQuarantine = "cluster-quarantine-converges"
	// InvStoreRecovery: a paged store hit by a write-path fault
	// (journal tear, crash window, torn page write-back) recovers on
	// reopen to exactly the pre-batch or post-batch byte image — never a
	// torn in-between — and the recovered database loads and verifies.
	InvStoreRecovery = "store-recovery"
	// InvStoreCorrupt: a bit flip on the store read path surfaces as a
	// typed ErrCorruptPage, and once the fault clears the same file
	// yields an estimate bit-identical to the in-memory reference —
	// corruption is detected, never silently folded into an answer.
	InvStoreCorrupt = "store-corruption-detected"
	// InvCoverage: every scheduled site actually fired at least once.
	InvCoverage = "site-coverage"
)

// invariantNames lists every invariant the campaign checks, in report
// order.
func invariantNames() []string {
	return []string{
		InvExactAgree, InvEpsBound, InvTypedErrors, InvResume,
		InvJobs, InvBreaker, InvCluster, InvClusterResume, InvClusterWork,
		InvClusterAudit, InvClusterQuarantine,
		InvStoreRecovery, InvStoreCorrupt,
		InvGoroutines, InvTmpFiles, InvCoverage,
	}
}

// InvariantStat tallies one invariant across the campaign.
type InvariantStat struct {
	// Checks is the number of times the invariant was evaluated.
	Checks int64 `json:"checks"`
	// Failures counts evaluations that failed.
	Failures int64 `json:"failures"`
	// Examples holds the first few failure messages.
	Examples []string `json:"examples,omitempty"`
}

// Report is the campaign verdict, serialized by cmd/qrelsoak.
type Report struct {
	Seed int64 `json:"seed"`
	// Steps is the planned step count; StepsRun how many executed
	// before the Duration cap (equal when uncapped).
	Steps    int `json:"steps"`
	StepsRun int `json:"steps_run"`
	// ScheduleHash fingerprints the planned fault schedule; equal seeds
	// must produce equal hashes.
	ScheduleHash string `json:"schedule_hash"`
	// Scheduled lists the sites the executed steps armed.
	Scheduled []string `json:"scheduled_sites"`
	// Invariants tallies each invariant; Verdicts is its pass/fail
	// projection (true = no failures), the deterministic part of the
	// reproducibility contract.
	Invariants map[string]*InvariantStat `json:"invariants"`
	Verdicts   map[string]bool           `json:"verdicts"`
	// Sites is the per-site hit/fire coverage accumulated by the
	// faultinject counters.
	Sites map[string]faultinject.SiteCount `json:"sites"`
	// Passed reports that every invariant held.
	Passed    bool  `json:"passed"`
	ElapsedMS int64 `json:"elapsed_ms"`
}
