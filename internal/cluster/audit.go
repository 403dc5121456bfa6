package cluster

// Sampled audits: the trust-but-verify layer. A lane range is a pure
// function of (seed, range, accuracy), so two replicas that execute the
// same range MUST produce bit-identical lane aggregates — determinism
// turns cross-replica checking from a statistical test into an exact
// one. The coordinator exploits that by re-executing a deterministic
// sample of completed ranges (Config.AuditFrac, selection seeded from
// the request so reruns audit the same ranges) on a different replica
// and byte-comparing the attestation digests. Agreement is proof of
// correctness for that range; disagreement triggers a tie-break on a
// third replica, the odd one out is the liar, it is quarantined
// immediately, and every range it won is repaired before the merge —
// so a corrupted aggregate never reaches a served estimate. With no
// third replica available the fan-out is refused rather than served
// unverified.
//
// Audits always re-execute synchronously (never through the jobs API:
// an idempotency-keyed sub-job would re-attach to the original result
// instead of recomputing it) and never plant resume frames (a frame
// shipped by the replica under audit would launder its corruption into
// the audit run).

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"qrel/internal/core"
	"qrel/internal/faultinject"
	"qrel/internal/mc"
	"qrel/internal/server"
)

// ErrAuditUnresolved is returned (wrapped) when an audit caught two
// replicas disagreeing on a deterministic range and no third replica
// could tie-break. Serving would mean guessing which half of the
// cluster is lying, so the coordinator refuses instead.
var ErrAuditUnresolved = errors.New("cluster: audit mismatch unresolved; refusing to serve an unverified estimate")

// Audit verdicts recorded in the fan-out journal.
const (
	AuditOK         = "ok"
	AuditMismatch   = "mismatch"
	AuditLiar       = "liar"
	AuditUnresolved = "unresolved"
	AuditSkipped    = "skipped"
)

// AuditRecord is one audit's durable row in the fan-out journal —
// enough to reconstruct after the fact which ranges were verified, by
// whom, and what the verdict was.
type AuditRecord struct {
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
	Total int `json:"total"`
	// Original is the replica whose sub-response was audited; Auditor
	// re-executed the range.
	Original string `json:"original"`
	Auditor  string `json:"auditor,omitempty"`
	// Verdict is one of the Audit* constants.
	Verdict string `json:"verdict"`
	// Liar names the replica the tie-break identified as divergent
	// (verdict "liar" only).
	Liar string `json:"liar,omitempty"`
	// Digest and AuditorDigest are the two attestation digests compared.
	Digest        string `json:"digest,omitempty"`
	AuditorDigest string `json:"auditor_digest,omitempty"`
	// Err carries why an audit was skipped.
	Err string `json:"err,omitempty"`
}

// verifyAttestation recomputes the digest over a sub-response's lane
// aggregates and compares it to the replica's attestation. Responses
// without lane aggregates (proxied whole requests) trivially pass.
func verifyAttestation(res *server.Response) (string, bool) {
	if res.LaneRange == nil {
		return "", true
	}
	d := mc.RangeDigest(res.LaneRange.Lanes)
	return d, res.LaneDigest == d
}

// auditSeed derives the audit-selection seed from the fields that
// identify the computation, so re-running the same request audits the
// same ranges — reproducibility extends to the audit schedule itself.
func auditSeed(req server.Request) int64 {
	h := fnv.New64a()
	h.Write(identity(req))
	return int64(h.Sum64())
}

// auditFanout runs the sampled audits of one completed fan-out, after
// every range succeeded and before the merge. subs and froms are the
// per-range sub-responses and the replicas that produced them; both may
// be rewritten when a liar's ranges are repaired. Returns the audit
// trail and a non-nil error when the fan-out must not be served.
func (c *Coordinator) auditFanout(ctx context.Context, req server.Request, ranges []mc.Range, subs []*server.Response, froms []string, j *fanoutJournal) ([]server.ClusterStep, error) {
	if c.cfg.AuditFrac <= 0 {
		return nil, nil
	}
	rng := rand.New(rand.NewSource(auditSeed(req)))
	var trail []server.ClusterStep
	for i := range ranges {
		// Draw for every range unconditionally so the selection of range
		// k never depends on what earlier audits did.
		if rng.Float64() >= c.cfg.AuditFrac {
			continue
		}
		t, err := c.auditRange(ctx, req, ranges, i, subs, froms, j)
		trail = append(trail, t...)
		if err != nil {
			return trail, err
		}
	}
	return trail, nil
}

// auditRange audits one range: re-execute on a different replica,
// compare digests, tie-break a mismatch, quarantine the liar, repair
// its ranges.
func (c *Coordinator) auditRange(ctx context.Context, req server.Request, ranges []mc.Range, i int, subs []*server.Response, froms []string, j *fanoutJournal) ([]server.ClusterStep, error) {
	rg, sub, orig := ranges[i], subs[i], froms[i]
	rec := AuditRecord{Lo: rg.Lo, Hi: rg.Hi, Total: rg.Total, Original: orig, Digest: sub.LaneDigest}
	var trail []server.ClusterStep
	if sub.Degraded {
		// A degraded original stopped early; a full re-execution would
		// legitimately disagree. The widened guarantee already reports the
		// shortfall honestly — nothing to verify.
		c.nAuditsSkipped.Add(1)
		rec.Verdict, rec.Err = AuditSkipped, "degraded original"
		j.addAudit(rec)
		return append(trail, server.ClusterStep{Replica: orig, Lo: rg.Lo, Hi: rg.Hi, Event: "audit-skipped", Err: "degraded original"}), nil
	}

	ares, auditor, t := c.auditExec(ctx, req, rg, orig)
	trail = append(trail, t...)
	if ares == nil {
		c.nAuditsSkipped.Add(1)
		rec.Verdict, rec.Err = AuditSkipped, "no eligible auditor"
		j.addAudit(rec)
		return append(trail, server.ClusterStep{Replica: orig, Lo: rg.Lo, Hi: rg.Hi, Event: "audit-skipped", Err: "no eligible auditor"}), nil
	}
	c.nAudits.Add(1)
	rec.Auditor, rec.AuditorDigest = auditor.url, ares.LaneDigest

	if ares.LaneDigest == sub.LaneDigest {
		rec.Verdict = AuditOK
		j.addAudit(rec)
		trail = append(trail, server.ClusterStep{Replica: auditor.url, Lo: rg.Lo, Hi: rg.Hi, Event: "audit-ok", Source: orig, Digest: ares.LaneDigest})
		// Exact agreement vouches for both parties.
		trail = c.appendHealth(trail, orig, func(f *healthFSM) string { return f.RecordClean(time.Now(), c.cfg.ProbationAudits) })
		trail = c.appendHealth(trail, auditor.url, func(f *healthFSM) string { return f.RecordClean(time.Now(), c.cfg.ProbationAudits) })
		return trail, nil
	}

	c.nAuditMismatches.Add(1)
	trail = append(trail, server.ClusterStep{Replica: auditor.url, Lo: rg.Lo, Hi: rg.Hi, Event: "audit-mismatch", Source: orig, Digest: ares.LaneDigest,
		Err: fmt.Sprintf("lane aggregates diverge from %s", orig)})

	// Tie-break on a third replica. The range is deterministic, so the
	// majority digest is the truth and the odd one out is the liar.
	tres, tie, tt := c.auditExec(ctx, req, rg, orig, auditor.url)
	trail = append(trail, tt...)
	var liar string
	var truth []mc.LaneAgg
	switch {
	case tres == nil:
		// Two replicas disagree on a deterministic computation and nobody
		// can break the tie: both become suspect and the fan-out is
		// refused rather than served on a guess.
		rec.Verdict = AuditUnresolved
		j.addAudit(rec)
		trail = append(trail, server.ClusterStep{Replica: orig, Lo: rg.Lo, Hi: rg.Hi, Event: "audit-unresolved", Source: auditor.url})
		trail = c.appendHealth(trail, orig, func(f *healthFSM) string { return f.RecordBad(time.Now()) })
		trail = c.appendHealth(trail, auditor.url, func(f *healthFSM) string { return f.RecordBad(time.Now()) })
		return trail, fmt.Errorf("cluster: range %s: %s and %s disagree: %w", rg, orig, auditor.url, ErrAuditUnresolved)
	case tres.LaneDigest == sub.LaneDigest:
		liar, truth = auditor.url, sub.LaneRange.Lanes
	case tres.LaneDigest == ares.LaneDigest:
		liar, truth = orig, ares.LaneRange.Lanes
	default:
		// Three distinct answers to one deterministic range — no majority
		// exists. Suspect everyone involved and refuse.
		rec.Verdict = AuditUnresolved
		j.addAudit(rec)
		trail = append(trail, server.ClusterStep{Replica: orig, Lo: rg.Lo, Hi: rg.Hi, Event: "audit-unresolved", Source: auditor.url, Digest: tres.LaneDigest})
		for _, u := range []string{orig, auditor.url, tie.url} {
			trail = c.appendHealth(trail, u, func(f *healthFSM) string { return f.RecordBad(time.Now()) })
		}
		return trail, fmt.Errorf("cluster: range %s: three-way digest disagreement: %w", rg, ErrAuditUnresolved)
	}

	rec.Verdict, rec.Liar = AuditLiar, liar
	j.addAudit(rec)
	majority := mc.RangeDigest(truth)
	trail = append(trail, server.ClusterStep{Replica: liar, Lo: rg.Lo, Hi: rg.Hi, Event: "audit-liar", Source: tie.url, Digest: majority})
	trail = c.appendHealth(trail, liar, func(f *healthFSM) string { return f.RecordLiar(time.Now()) })
	// The two agreeing parties proved themselves on this range.
	for _, u := range []string{orig, auditor.url, tie.url} {
		if u != liar {
			trail = c.appendHealth(trail, u, func(f *healthFSM) string { return f.RecordClean(time.Now(), c.cfg.ProbationAudits) })
		}
	}

	rt, err := c.repairLiar(ctx, req, ranges, subs, froms, liar, i, truth, j)
	return append(trail, rt...), err
}

// appendHealth applies one health transition to the replica named by
// url and appends the emitted trail event, if any.
func (c *Coordinator) appendHealth(trail []server.ClusterStep, url string, apply func(*healthFSM) string) []server.ClusterStep {
	if ev := c.healthEvent(c.indexOf(url), apply); ev != "" {
		trail = append(trail, server.ClusterStep{Replica: url, Event: ev})
	}
	return trail
}

// auditExec re-executes one lane range for audit purposes on the first
// eligible replica not in exclude — synchronously, with no resume
// frame, and with the response attested and completeness-checked.
// Probation replicas are tried first: supervised re-execution is
// exactly the work that can earn them readmission. Returns (nil, nil,
// trail) when no candidate produced a usable answer; candidates that
// fail are simply passed over (the audit is an extra check, not a
// liveness decision — except that an attestation failure still counts
// against the candidate).
func (c *Coordinator) auditExec(ctx context.Context, req server.Request, rg mc.Range, exclude ...string) (*server.Response, *replica, []server.ClusterStep) {
	sub := req
	sub.Engine = string(core.EngineMCDirect)
	sub.Lanes = &rg
	sub.IdempotencyKey = ""
	sub.Resume = nil
	var trail []server.ClusterStep
	for _, r := range c.auditCandidates(&trail, exclude) {
		if err := faultinject.Hit(faultinject.SiteClusterAudit); err != nil {
			trail = append(trail, server.ClusterStep{Replica: r.url, Lo: rg.Lo, Hi: rg.Hi, Event: "audit-skipped", Err: err.Error()})
			continue
		}
		sctx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
		res, err := r.client.Reliability(sctx, sub)
		cancel()
		if err != nil {
			trail = append(trail, server.ClusterStep{Replica: r.url, Lo: rg.Lo, Hi: rg.Hi, Event: "audit-skipped", Err: err.Error()})
			continue
		}
		if d, ok := verifyAttestation(res); !ok {
			c.nAttestFails.Add(1)
			trail = append(trail, server.ClusterStep{Replica: r.url, Lo: rg.Lo, Hi: rg.Hi, Event: "attest-fail", Digest: d})
			trail = c.appendHealth(trail, r.url, func(f *healthFSM) string { return f.RecordBad(time.Now()) })
			continue
		}
		lr := res.LaneRange
		if res.Degraded || lr == nil || lr.Lo != rg.Lo || lr.Hi != rg.Hi || lr.Total != rg.Total {
			// An incomplete or mismatched re-execution cannot be compared
			// byte-for-byte; try the next candidate.
			trail = append(trail, server.ClusterStep{Replica: r.url, Lo: rg.Lo, Hi: rg.Hi, Event: "audit-skipped", Err: "incomplete audit execution"})
			continue
		}
		return res, r, trail
	}
	return nil, nil, trail
}

// auditCandidates lists the replicas eligible to execute an audit, in
// preference order: probation replicas first (ring order), then the
// workable ones. Quarantined and down replicas never audit. Lazy
// quarantine→probation promotions performed here are appended to trail.
func (c *Coordinator) auditCandidates(trail *[]server.ClusterStep, exclude []string) []*replica {
	excluded := func(url string) bool {
		for _, e := range exclude {
			if e == url {
				return true
			}
		}
		return false
	}
	var probation, rest []*replica
	for i, r := range c.replicas {
		if excluded(r.url) || !r.up.Load() {
			continue
		}
		st, _, ev := c.healthSnapshot(i)
		if ev != "" {
			*trail = append(*trail, server.ClusterStep{Replica: r.url, Event: ev})
		}
		switch st {
		case HealthProbation:
			probation = append(probation, r)
		case HealthQuarantined:
		default:
			rest = append(rest, r)
		}
	}
	return append(probation, rest...)
}

// repairLiar makes the pending merge honest after a liar was
// identified: the audited range is replaced by the majority aggregates
// already in hand, and every other range the liar won is re-executed
// from scratch on an honest replica ("audit-replant" — the shipped
// frames the liar produced are not trusted either). An unrepairable
// range fails the fan-out: the estimate is never served with a known
// liar's aggregates in it.
func (c *Coordinator) repairLiar(ctx context.Context, req server.Request, ranges []mc.Range, subs []*server.Response, froms []string, liar string, auditedIdx int, truth []mc.LaneAgg, j *fanoutJournal) ([]server.ClusterStep, error) {
	var trail []server.ClusterStep
	for k := range ranges {
		if froms[k] != liar {
			continue
		}
		if k == auditedIdx {
			subs[k].LaneRange.Lanes = truth
			subs[k].LaneDigest = mc.RangeDigest(truth)
			froms[k] = ""
			j.setDone(k, subs[k].LaneDigest)
			continue
		}
		res, w, t := c.auditExec(ctx, req, ranges[k], liar)
		trail = append(trail, t...)
		if res == nil {
			return trail, fmt.Errorf("cluster: range %s: no honest replica to re-execute a range won by quarantined %s: %w", ranges[k], liar, ErrNoReplicas)
		}
		c.nAuditReplants.Add(1)
		trail = append(trail, server.ClusterStep{Replica: w.url, Lo: ranges[k].Lo, Hi: ranges[k].Hi, Event: "audit-replant", Source: liar, Digest: res.LaneDigest})
		subs[k], froms[k] = res, w.url
		j.setDone(k, res.LaneDigest)
	}
	return trail, nil
}
