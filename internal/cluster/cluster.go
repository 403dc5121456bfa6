// Package cluster is the sharded-qreld coordinator: it registers a
// static set of qreld replicas, health-probes them, and serves the same
// POST /v1/reliability API by either proxying a request whole to one
// replica (consistent hashing) or — for explicitly parallel
// monte-carlo-direct requests — fanning the estimation out as disjoint
// lane ranges of the DefaultLanes-lane split, one range per live
// replica, and merging the raw per-lane aggregates in fixed lane order.
//
// Because lanes (not workers, not replicas) determine the estimate, the
// merged answer is bit-identical to running the same request with
// Workers=N on one machine, for any replica count and any assignment of
// ranges to replicas — including assignments that change mid-run when a
// replica dies and its range is reassigned to a survivor. That identity
// is the package's central invariant; the chaos campaign
// (internal/chaos) checks it under replica kills, partitions, slow
// replicas, and coordinator restarts.
//
// Robustness machinery per sub-request: a per-replica circuit breaker
// (the same state machine that guards engine rungs in internal/server),
// bounded retries with jittered exponential backoff, optional hedging
// (duplicate the sub-request to the next live replica after HedgeAfter;
// first success wins — safe precisely because the lane range is
// deterministic and, in jobs mode, idempotency-keyed), and reassignment
// to the next live replica in ring order when a target fails. Every
// assign / retry / hedge / reassign / breaker-skip is recorded in the
// response's ClusterTrail.
//
// On top of that sits work conservation (ship.go, journal.go):
// replicas ship CRC-framed mid-run checkpoints of their lane ranges,
// the coordinator validates and keeps the freshest frame per range,
// and a reassigned range resumes from the shipped state instead of
// restarting — so losing a replica costs at most one shipping interval
// of samples while the answer stays bit-identical. With a JournalDir
// configured, keyed fan-outs are additionally journaled durably, and a
// coordinator restarted after a crash recovers them (Recover) and
// completes the merge. Resume provenance ("resume" /
// "resume-rejected" events naming the shipping replica and sequence
// number) joins the ClusterTrail vocabulary.
//
// Finally, the trust-but-verify layer (audit.go, health.go) assumes
// replicas can lie, not just die: every sub-response carries an
// attestation digest over its raw lane aggregates (verified before
// acceptance), a configurable fraction of completed ranges is
// re-executed on a different replica and byte-compared (exact, because
// the range is deterministic), a tie-break on a third replica
// identifies the liar on mismatch, and a per-replica quarantine state
// machine drains untrusted replicas from the pool and readmits them
// only after consecutive clean probation audits. A corrupted aggregate
// is either repaired before the merge or fails the fan-out — never
// served unflagged.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qrel/internal/core"
	"qrel/internal/faultinject"
	"qrel/internal/mc"
	"qrel/internal/server"
	"qrel/internal/server/client"
)

// Config tunes a Coordinator. The zero value of every field has a
// usable default except Replicas, which must name at least one qreld
// base URL.
type Config struct {
	// Replicas are the qreld base URLs (e.g. "http://127.0.0.1:8081").
	// They are sorted, so the hash ring and the range assignment are
	// independent of declaration order.
	Replicas []string
	// ProbeInterval is the /readyz health-probe cadence (default 2s);
	// ProbeTimeout bounds one probe (default 1s). ProbeFailThreshold
	// consecutive probe failures mark a replica down (default 2); one
	// success marks it up again.
	ProbeInterval      time.Duration
	ProbeTimeout       time.Duration
	ProbeFailThreshold int
	// MaxAttempts bounds tries per lane range (and per proxied request),
	// the first included (default 6 — it must absorb a dead replica plus
	// an injected reassignment fault and still land on a survivor).
	MaxAttempts int
	// BaseBackoff/MaxBackoff shape the jittered exponential delay
	// between attempts (defaults 25ms / 1s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// HedgeAfter, when positive, duplicates a still-unanswered
	// sub-request to the next live replica after this long; the first
	// success wins. Zero disables hedging.
	HedgeAfter time.Duration
	// RequestTimeout bounds one sub-request end to end (default 60s).
	RequestTimeout time.Duration
	// Breaker tunes the per-replica circuit breakers.
	Breaker server.BreakerConfig
	// MaxFanout caps how many replicas one estimation is split across
	// (default mc.DefaultLanes — more ranges than lanes cannot exist).
	MaxFanout int
	// UseJobs routes sub-requests through POST /v1/jobs with an
	// idempotency key derived from the parent request's key and the lane
	// range, so a retried or reassigned sub-request re-attaches to the
	// replica's journaled job instead of starting a duplicate. Requires
	// the parent request to carry an IdempotencyKey and the replicas to
	// have jobs enabled. JobPoll is the initial poll interval while
	// waiting on a sub-job (default 50ms).
	UseJobs bool
	JobPoll time.Duration
	// CheckpointPoll is how often, while waiting on a sub-job, the
	// coordinator polls the replica's GET /v1/jobs/{id}/checkpoint for
	// the freshest shipped frame (default 100ms). When the replica dies
	// mid-job, the range is re-planted on a survivor from that frame, so
	// at most one polling interval of work is lost.
	CheckpointPoll time.Duration
	// JournalDir, when non-empty, enables the fan-out journal: every
	// keyed fan-out durably records its split, per-range assignments,
	// and latest shipped checkpoints, so a coordinator restarted after a
	// crash can Recover the run and complete the merge (see journal.go).
	JournalDir string
	// AuditFrac is the fraction of completed lane ranges the coordinator
	// re-executes on a different replica and byte-compares before
	// serving a fan-out (see audit.go). Selection is deterministic per
	// request. Zero (the default) disables audits entirely — the
	// attestation check still runs, and costs one digest per
	// sub-response.
	AuditFrac float64
	// ProbationAudits is how many consecutive clean audits a probation
	// replica needs to be readmitted to the work pool (default 3).
	ProbationAudits int
	// QuarantineCooldown is how long a quarantined replica stays fully
	// drained before it may re-enter as a probation auditor (default
	// 30s).
	QuarantineCooldown time.Duration
	// Seed seeds the coordinator's private backoff-jitter RNG, making
	// retry timing reproducible in tests. Zero uses the wall clock.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.ProbeFailThreshold <= 0 {
		c.ProbeFailThreshold = 2
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 6
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 25 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.MaxFanout <= 0 || c.MaxFanout > mc.DefaultLanes {
		c.MaxFanout = mc.DefaultLanes
	}
	if c.JobPoll <= 0 {
		c.JobPoll = 50 * time.Millisecond
	}
	if c.CheckpointPoll <= 0 {
		c.CheckpointPoll = 100 * time.Millisecond
	}
	if c.ProbationAudits <= 0 {
		c.ProbationAudits = 3
	}
	if c.QuarantineCooldown <= 0 {
		c.QuarantineCooldown = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = time.Now().UnixNano()
	}
	return c
}

// ErrNoReplicas is returned (wrapped) when every replica is down or
// breaker-vetoed for the whole retry budget — the coordinator's view of
// a full partition. The HTTP handler maps it to 503 so clients retry.
var ErrNoReplicas = errors.New("cluster: no live replicas")

// replica is the coordinator's record of one qreld instance.
type replica struct {
	url    string
	client *client.Client
	// up is the probe verdict; requests are only routed to up replicas.
	// Replicas start up so the coordinator is usable before the first
	// probe round completes.
	up    atomic.Bool
	fails atomic.Int64 // consecutive probe failures
}

// Coordinator fans reliability requests out over a replica set. Build
// with New; Close stops the probers.
type Coordinator struct {
	cfg      Config
	replicas []*replica // sorted by URL: the hash ring
	// health holds the per-replica integrity state machines, parallel to
	// replicas (see health.go).
	health   []*replicaHealth
	breakers *server.Breakers
	probeCli *http.Client

	jmu sync.Mutex
	rng *rand.Rand

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	nFanouts   atomic.Int64
	nProxied   atomic.Int64
	nRetries   atomic.Int64
	nHedges    atomic.Int64
	nReassigns atomic.Int64
	// Checkpoint-shipping and journal counters (see ship.go,
	// journal.go): frames accepted/rejected, resumes planted on
	// replicas and rejected by them, journal write outcomes, and
	// fan-outs completed by Recover.
	nCkptShipped     atomic.Int64
	nCkptRejected    atomic.Int64
	nResumes         atomic.Int64
	nResumesRejected atomic.Int64
	nJournalWrites   atomic.Int64
	nJournalErrors   atomic.Int64
	nRecovered       atomic.Int64
	// Integrity counters (see audit.go, health.go): audits executed /
	// skipped, digest mismatches between replicas, ranges re-executed
	// away from a liar, attestation failures, quarantine transitions,
	// and replicas passed over in target selection for health reasons.
	nAudits          atomic.Int64
	nAuditsSkipped   atomic.Int64
	nAuditMismatches atomic.Int64
	nAuditReplants   atomic.Int64
	nAttestFails     atomic.Int64
	nQuarantines     atomic.Int64
	nQuarantineSkips atomic.Int64

	start time.Time
}

// New builds a coordinator over the configured replica set and starts
// its health probers.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("cluster: no replicas configured")
	}
	urls := append([]string(nil), cfg.Replicas...)
	sort.Strings(urls)
	c := &Coordinator{
		cfg:      cfg,
		breakers: server.NewBreakers(cfg.Breaker),
		probeCli: &http.Client{},
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		stop:     make(chan struct{}),
		start:    time.Now(),
	}
	for _, u := range urls {
		cl := client.New(u)
		// The coordinator owns the retry policy (it must see every
		// failure to reassign and record the trail), so replica clients
		// make exactly one attempt per call.
		cl.MaxAttempts = 1
		cl.MaxBackoff = cfg.MaxBackoff
		r := &replica{url: u, client: cl}
		r.up.Store(true)
		c.replicas = append(c.replicas, r)
		c.health = append(c.health, &replicaHealth{})
	}
	for _, r := range c.replicas {
		c.wg.Add(1)
		go c.probeLoop(r)
	}
	return c, nil
}

// Close stops the health probers and drops their idle connections.
// In-flight Do calls are unaffected. Idempotent: a handover path that
// closes a coordinator it built may race a deferred Close.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
	c.probeCli.CloseIdleConnections()
}

// probeLoop probes one replica immediately and then every
// ProbeInterval until Close.
func (c *Coordinator) probeLoop(r *replica) {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		c.probeOnce(r)
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
	}
}

// probeOnce runs one /readyz probe and updates the replica's verdict.
// An armed SiteClusterProbe fault reads as a failed probe — how the
// chaos campaign simulates a probe-visible partition without touching
// the network stack.
func (c *Coordinator) probeOnce(r *replica) {
	err := faultinject.Hit(faultinject.SiteClusterProbe)
	if err == nil {
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
		err = c.ready(ctx, r)
		cancel()
	}
	if err != nil {
		if r.fails.Add(1) >= int64(c.cfg.ProbeFailThreshold) {
			r.up.Store(false)
		}
		return
	}
	r.fails.Store(0)
	r.up.Store(true)
}

// ready performs one GET /readyz.
func (c *Coordinator) ready(ctx context.Context, r *replica) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.probeCli.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s/readyz: %s", r.url, resp.Status)
	}
	return nil
}

// Do serves one reliability request against the cluster. Explicitly
// parallel monte-carlo-direct requests (Workers > 0) fan out as lane
// ranges across the live replicas; everything else (other engines, auto
// dispatch, Workers == 0 runs, and lane-range sub-requests arriving from
// an outer coordinator) proxies whole to the hash-ring replica, with
// failover.
//
// Workers only schedules the lane split, so a Workers == 0 run answers
// what its fan-out would, bit for bit; it is proxied whole because it
// asks for one goroutine, not because its stream differs.
func (c *Coordinator) Do(ctx context.Context, req server.Request) (*server.Response, error) {
	if req.Engine == string(core.EngineMCDirect) && req.Workers > 0 && req.Lanes == nil {
		// A keyed fan-out the journal already saw to completion (e.g. by
		// a pre-crash process or by Recover) is served from the record —
		// the coordinator-level idempotency that makes "crash, restart,
		// re-POST" indistinguishable from one uninterrupted call.
		if res := c.journaledResult(req); res != nil {
			return res, nil
		}
		if live := c.liveIndexes(); len(live) >= 2 {
			return c.fanOut(ctx, req, live)
		}
	}
	return c.proxy(ctx, req)
}

// liveIndexes returns the ring indexes of the replicas currently
// eligible for work: up by probe verdict AND workable by integrity
// health (quarantined and probation replicas are drained; see
// health.go).
func (c *Coordinator) liveIndexes() []int {
	var out []int
	for i, r := range c.replicas {
		if r.up.Load() && c.workable(i) {
			out = append(out, i)
		}
	}
	return out
}

// fanOut splits the DefaultLanes-lane estimation into one contiguous
// lane range per live replica (capped at MaxFanout), runs the ranges
// concurrently with per-range retry/reassignment, and merges the raw
// lane aggregates in lane-index order into the single-node answer.
func (c *Coordinator) fanOut(ctx context.Context, req server.Request, live []int) (*server.Response, error) {
	parts := len(live)
	if parts > c.cfg.MaxFanout {
		parts = c.cfg.MaxFanout
	}
	ranges := mc.SplitRanges(mc.DefaultLanes, parts)
	starts := make([]int, len(ranges))
	for i := range ranges {
		starts[i] = live[i%len(live)]
	}
	c.nFanouts.Add(1)
	return c.runRanges(ctx, req, ranges, starts, time.Now())
}

// runRanges drives a fixed set of lane ranges to completion and merges
// them — the shared engine behind fanOut and Recover. When journaling
// is on for the request, the fan-out is recorded durably and each
// range's tracker is pre-seeded with its journaled shipped checkpoint.
func (c *Coordinator) runRanges(ctx context.Context, req server.Request, ranges []mc.Range, starts []int, began time.Time) (*server.Response, error) {
	j := c.openJournal(req, ranges)
	type outcome struct {
		res   *server.Response
		from  string
		trail []server.ClusterStep
		err   error
	}
	results := make([]outcome, len(ranges))
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for i, rg := range ranges {
		ship := &shipTracker{c: c, seed: req.Seed, rg: rg, j: j, idx: i}
		if frame, from := j.checkpointOf(i); frame != nil {
			ship.preload(frame, from)
		}
		wg.Add(1)
		go func(i int, rg mc.Range, ship *shipTracker) {
			defer wg.Done()
			res, from, trail, err := c.runRange(fctx, req, rg, starts[i], ship)
			results[i] = outcome{res, from, trail, err}
			if err != nil {
				cancel() // a lost range dooms the merge; stop the siblings
			} else {
				j.setDone(i, res.LaneDigest)
			}
		}(i, rg, ship)
	}
	wg.Wait()

	var trail []server.ClusterStep
	subs := make([]*server.Response, 0, len(results))
	froms := make([]string, 0, len(results))
	for i, o := range results {
		if o.err != nil {
			// Prefer the originating failure over the ctx errors the
			// sibling cancellation induced.
			for _, p := range results {
				if p.err != nil && !errors.Is(p.err, context.Canceled) {
					return nil, p.err
				}
			}
			return nil, results[i].err
		}
		trail = append(trail, o.trail...)
		subs = append(subs, o.res)
		froms = append(froms, o.from)
	}
	// Sampled audits run after every range succeeded and before the
	// merge: a corrupted aggregate either gets repaired here or fails
	// the fan-out — it is never served unflagged.
	atrail, err := c.auditFanout(ctx, req, ranges, subs, froms, j)
	trail = append(trail, atrail...)
	if err != nil {
		return nil, err
	}
	res, err := c.merge(req, ranges, subs, trail, began)
	if err != nil {
		return nil, err
	}
	j.finish(res)
	return res, nil
}

// merge folds the per-range lane aggregates into the whole-run
// estimate, reproducing the single-node monte-carlo-direct response
// expression for expression (bit-identity is test-enforced).
func (c *Coordinator) merge(req server.Request, ranges []mc.Range, subs []*server.Response, trail []server.ClusterStep, began time.Time) (*server.Response, error) {
	total := mc.DefaultLanes
	// The replicas ran under core's defaulted accuracy; MergeMean must
	// recompute the identical sample plan, so default exactly as
	// core.Options does.
	effEps, effDelta := req.Eps, req.Delta
	if effEps == 0 {
		effEps = core.DefaultEps
	}
	if effDelta == 0 {
		effDelta = core.DefaultDelta
	}
	var aggs []mc.LaneAgg
	requested, normF := -1, 0.0
	resumed := false
	for i, sub := range subs {
		lr := sub.LaneRange
		if lr == nil {
			return nil, fmt.Errorf("cluster: range %s replica answered without lane aggregates", ranges[i])
		}
		if lr.Lo != ranges[i].Lo || lr.Hi != ranges[i].Hi || lr.Total != total {
			return nil, fmt.Errorf("cluster: range %s replica answered for %d-%d/%d", ranges[i], lr.Lo, lr.Hi, lr.Total)
		}
		if lr.Method != mc.MeanMethod {
			// A replica drawing its worlds in another order (another build)
			// sampled other streams: its lanes do not splice with these.
			return nil, fmt.Errorf("cluster: range %s replica sampled with estimator %q, this coordinator merges %q", ranges[i], lr.Method, mc.MeanMethod)
		}
		if requested == -1 {
			requested, normF = lr.Requested, lr.NormF
		} else if lr.Requested != requested || lr.NormF != normF {
			return nil, fmt.Errorf("cluster: range %s disagrees on the sample plan (requested %d vs %d, norm %v vs %v)",
				ranges[i], lr.Requested, requested, lr.NormF, normF)
		}
		aggs = append(aggs, lr.Lanes...)
		resumed = resumed || sub.Resumed
	}
	est, err := mc.MergeMean(aggs, total, effEps, effDelta, req.MaxSamples)
	if err != nil {
		return nil, fmt.Errorf("cluster: merging lane aggregates: %w", err)
	}
	if est.Requested != requested {
		return nil, fmt.Errorf("cluster: merge recomputed %d requested samples, replicas planned %d", est.Requested, requested)
	}
	return &server.Response{
		R:            1 - est.Value,
		H:            est.Value * normF,
		Engine:       subs[0].Engine,
		Guarantee:    subs[0].Guarantee,
		Eps:          est.Eps,
		Delta:        effDelta,
		Samples:      est.Samples,
		Class:        subs[0].Class,
		Degraded:     est.Partial,
		Seed:         req.Seed,
		Resumed:      resumed,
		ClusterTrail: trail,
		ElapsedMS:    time.Since(began).Milliseconds(),
	}, nil
}

// runRange drives one lane range to completion: pick a live replica
// (ring order from startIdx), send, and on transient failure back off
// and reassign to the next live replica — recording every event. Every
// attempt plants the freshest shipped checkpoint (when the tracker
// holds one) so the target resumes the range instead of redoing the
// dead replica's work; a target that rejects the planted snapshot
// (fingerprint mismatch or corrupt frame, HTTP 409 kind "checkpoint")
// costs the frame, never the range — the next attempt restarts clean.
//
// Every successful sub-response is attestation-checked before it is
// accepted: the coordinator recomputes mc.RangeDigest over the lane
// aggregates it received and compares it to the replica's LaneDigest. A
// mismatch means the aggregates were perturbed between the replica's
// sampling loop and this process (wire or memory corruption) — the
// attempt is discarded, the replica takes a health strike, and the
// range retries elsewhere. The second return value names the replica
// whose aggregates were accepted (the audit layer's hook).
func (c *Coordinator) runRange(ctx context.Context, req server.Request, rg mc.Range, startIdx int, ship *shipTracker) (*server.Response, string, []server.ClusterStep, error) {
	sub := req
	sub.Engine = string(core.EngineMCDirect)
	sub.Lanes = &rg
	if c.cfg.UseJobs && req.IdempotencyKey != "" {
		sub.IdempotencyKey = subKey(req.IdempotencyKey, rg)
	} else {
		sub.IdempotencyKey = ""
	}
	var trail []server.ClusterStep
	var lastErr error
	var degraded *server.Response // freshest partial answer, returned if attempts run out
	var degradedFrom string
	idx, prev := startIdx, -1
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.nRetries.Add(1)
			if err := c.sleep(ctx, attempt-1); err != nil {
				return nil, "", trail, err
			}
		}
		target, tIdx, skips := c.pickTarget(idx, rg)
		trail = append(trail, skips...)
		if target == nil {
			lastErr = ErrNoReplicas
			continue // a probe may mark someone up before the next attempt
		}
		event := "retry"
		switch {
		case attempt == 0:
			event = "assign"
		case tIdx != prev:
			event = "reassign"
		}
		prev, idx = tIdx, tIdx+1
		if event == "reassign" {
			c.nReassigns.Add(1)
			if err := faultinject.Hit(faultinject.SiteClusterReassign); err != nil {
				trail = append(trail, server.ClusterStep{Replica: target.url, Lo: rg.Lo, Hi: rg.Hi, Event: event, Err: err.Error()})
				lastErr = err
				continue
			}
		}
		if ship != nil {
			ship.j.setAssigned(ship.idx, target.url)
		}
		// Plant the freshest shipped checkpoint, recording its
		// provenance (shipping replica + sequence number) in the trail.
		sub.Resume = nil
		resumeSeq, resumeFrom := 0, ""
		if frame, seq, from := ship.latest(); frame != nil {
			sub.Resume = frame
			resumeSeq, resumeFrom = seq, from
			c.nResumes.Add(1)
			trail = append(trail, server.ClusterStep{Replica: target.url, Lo: rg.Lo, Hi: rg.Hi, Event: "resume", Source: from, Seq: seq})
		}
		// Capture the backup once: probes may flip replicas down while
		// the race runs, so a second hedgeTarget call could return nil
		// (or a different replica than the one actually hedged to).
		backup := c.hedgeTarget(tIdx)
		res, winner, hedged, err := c.raceSend(ctx, target, backup, sub, ship)
		step := server.ClusterStep{Replica: target.url, Lo: rg.Lo, Hi: rg.Hi, Event: event}
		if err != nil {
			step.Err = err.Error()
		}
		trail = append(trail, step)
		if hedged {
			trail = append(trail, server.ClusterStep{Replica: backup.url, Lo: rg.Lo, Hi: rg.Hi, Event: "hedge"})
		}
		if err == nil {
			// Verify the winner's attestation before accepting anything
			// from the response — including its shipped checkpoint.
			if d, ok := verifyAttestation(res); !ok {
				c.nAttestFails.Add(1)
				trail = append(trail, server.ClusterStep{Replica: winner.url, Lo: rg.Lo, Hi: rg.Hi, Event: "attest-fail", Digest: d,
					Err: "lane digest disagrees with aggregates"})
				trail = c.appendHealth(trail, winner.url, func(f *healthFSM) string { return f.RecordBad(time.Now()) })
				lastErr = fmt.Errorf("cluster: range %s: %s attestation failed", rg, winner.url)
				continue
			} else if res.LaneRange != nil {
				trail = append(trail, server.ClusterStep{Replica: winner.url, Lo: rg.Lo, Hi: rg.Hi, Event: "attest", Digest: res.LaneDigest})
			}
			if len(res.Checkpoint) > 0 {
				ship.accept(res.Checkpoint, winner.url)
			}
			// A degraded answer (the replica stopped early) whose final
			// checkpoint is fresher than what this attempt resumed from
			// is progress: retry-resume to finish the range instead of
			// settling for widened error bars. No progress (e.g. the
			// sample cap itself stopped the run) ends the loop.
			if res.Degraded && attempt+1 < c.cfg.MaxAttempts {
				if _, seq, _ := ship.latest(); seq > resumeSeq {
					degraded, degradedFrom = res, winner.url
					lastErr = nil
					idx = tIdx // the replica is healthy; retry-resume there
					continue
				}
			}
			trail = append(trail, server.ClusterStep{Replica: winner.url, Lo: rg.Lo, Hi: rg.Hi, Event: "done"})
			return res, winner.url, trail, nil
		}
		lastErr = err
		// A replica that rejects the planted snapshot answers 409 kind
		// "checkpoint" — not retryable as-is (every replica would refuse
		// the same frame), but perfectly retryable clean. Drop the frame
		// and go around before the transient gate can abort the range;
		// the fallback costs the conserved work, never the answer.
		var apiErr *client.APIError
		if len(sub.Resume) > 0 && errors.As(err, &apiErr) && apiErr.Kind == server.KindCheckpoint {
			c.nResumesRejected.Add(1)
			ship.drop()
			trail = append(trail, server.ClusterStep{Replica: target.url, Lo: rg.Lo, Hi: rg.Hi, Event: "resume-rejected", Source: resumeFrom, Seq: resumeSeq, Err: err.Error()})
			continue
		}
		if !transient(ctx, err) {
			return nil, "", trail, err
		}
	}
	if degraded != nil {
		trail = append(trail, server.ClusterStep{Replica: degradedFrom, Lo: rg.Lo, Hi: rg.Hi, Event: "done"})
		return degraded, degradedFrom, trail, nil
	}
	return nil, "", trail, fmt.Errorf("cluster: range %s: giving up after %d attempts: %w", rg, c.cfg.MaxAttempts, lastErr)
}

// pickTarget scans the ring from `from` for an up, workable replica
// whose breaker admits a request, recording breaker-vetoed live
// replicas as breaker-skip and health-drained ones as quarantine-skip
// trail steps.
func (c *Coordinator) pickTarget(from int, rg mc.Range) (*replica, int, []server.ClusterStep) {
	n := len(c.replicas)
	var skips []server.ClusterStep
	for i := 0; i < n; i++ {
		j := ((from+i)%n + n) % n
		r := c.replicas[j]
		if !r.up.Load() {
			continue
		}
		if !c.workable(j) {
			c.nQuarantineSkips.Add(1)
			skips = append(skips, server.ClusterStep{Replica: r.url, Lo: rg.Lo, Hi: rg.Hi, Event: "quarantine-skip"})
			continue
		}
		if !c.breakers.Allow(core.Engine(r.url)) {
			skips = append(skips, server.ClusterStep{Replica: r.url, Lo: rg.Lo, Hi: rg.Hi, Event: "breaker-skip"})
			continue
		}
		return r, j, skips
	}
	return nil, -1, skips
}

// hedgeTarget returns the next up, workable replica after ring index i,
// or nil when no distinct one exists (a cluster of one cannot hedge).
func (c *Coordinator) hedgeTarget(i int) *replica {
	n := len(c.replicas)
	for k := 1; k < n; k++ {
		j := (i + k) % n
		r := c.replicas[j]
		if r.up.Load() && c.workable(j) {
			return r
		}
	}
	return nil
}

// sendOutcome is one raceSend arm's result.
type sendOutcome struct {
	res  *server.Response
	from *replica
	err  error
}

// raceSend sends the sub-request to primary and, when hedging is on
// and a distinct backup exists, duplicates it to backup after
// HedgeAfter. The first success wins and cancels the loser; both
// failing returns the primary's (first) error. Duplicating is safe:
// the lane range is a pure function of (seed, range), and in jobs mode
// both arms share the sub-job idempotency key.
func (c *Coordinator) raceSend(ctx context.Context, primary, backup *replica, sub server.Request, ship *shipTracker) (*server.Response, *replica, bool, error) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make(chan sendOutcome, 2)
	send := func(r *replica) {
		res, err := c.sendSub(rctx, r, sub, ship)
		c.report(r, err)
		out <- sendOutcome{res, r, err}
	}
	go send(primary)
	inFlight := 1
	var hedgeC <-chan time.Time
	if c.cfg.HedgeAfter > 0 && backup != nil && backup != primary {
		t := time.NewTimer(c.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	hedged := false
	var firstErr error
	for {
		select {
		case <-hedgeC:
			hedgeC = nil
			hedged = true
			c.nHedges.Add(1)
			inFlight++
			go send(backup)
		case o := <-out:
			inFlight--
			if o.err == nil {
				return o.res, o.from, hedged, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if inFlight == 0 {
				return nil, nil, hedged, firstErr
			}
		}
	}
}

// sendSub performs one sub-request against one replica — sync by
// default, via the durable-jobs API when the coordinator runs in jobs
// mode and the sub-request carries a derived key. An armed
// SiteClusterSend fault reads as a transport failure (Err) or a slow
// replica (Delay).
func (c *Coordinator) sendSub(ctx context.Context, r *replica, sub server.Request, ship *shipTracker) (*server.Response, error) {
	if err := faultinject.Hit(faultinject.SiteClusterSend); err != nil {
		return nil, fmt.Errorf("cluster: send to %s: %w", r.url, err)
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	defer cancel()
	if c.cfg.UseJobs && sub.IdempotencyKey != "" {
		st, err := r.client.SubmitJob(ctx, sub)
		if err != nil {
			return nil, err
		}
		if st, err = c.waitSub(ctx, r, st, ship); err != nil {
			return nil, err
		}
		if st.State == server.JobDone {
			if st.Result != nil && len(st.Result.Checkpoint) > 0 {
				ship.accept(st.Result.Checkpoint, r.url)
			}
			return st.Result, nil
		}
		apiErr := &client.APIError{Status: http.StatusInternalServerError, Kind: server.KindEngineFailed,
			Message: fmt.Sprintf("sub-job %s failed", st.ID)}
		if st.Error != nil {
			apiErr.Kind, apiErr.Message = st.Error.Kind, st.Error.Error
		}
		return nil, apiErr
	}
	return r.client.Reliability(ctx, sub)
}

// waitSub polls one sub-job to a terminal state, interleaving
// checkpoint polls at the CheckpointPoll cadence — the coordinator
// always holds a recent shipped frame for the range, so a replica that
// dies mid-job loses at most one polling interval of work. Checkpoint
// poll failures are ignored: the frame is an accelerator, the job
// status is the answer.
func (c *Coordinator) waitSub(ctx context.Context, r *replica, st *server.JobStatus, ship *shipTracker) (*server.JobStatus, error) {
	poll := c.cfg.JobPoll
	var lastCkpt time.Time
	for st.State == server.JobRunning {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(poll):
		}
		if ship != nil && time.Since(lastCkpt) >= c.cfg.CheckpointPoll {
			lastCkpt = time.Now()
			if ck, err := r.client.JobCheckpoint(ctx, st.ID); err == nil && ck != nil {
				ship.accept(ck.Frame, r.url)
			}
		}
		var err error
		if st, err = r.client.GetJob(ctx, st.ID); err != nil {
			return nil, err
		}
		if poll *= 2; poll > c.cfg.CheckpointPoll {
			poll = c.cfg.CheckpointPoll
		}
	}
	return st, nil
}

// subKey derives a lane range's sub-job idempotency key from the
// parent's, so re-submissions of the same range re-attach wherever
// they land while distinct ranges never collide.
func subKey(parent string, rg mc.Range) string {
	return fmt.Sprintf("%s/lanes-%d-%d-%d", parent, rg.Lo, rg.Hi, rg.Total)
}

// transient classifies an error as retryable-elsewhere: transport
// failures and 503 sheds are; any other server answer (the request is
// bad, the computation infeasible, ...) would fail identically on every
// replica. Context errors are ambiguous — sendSub wraps every
// sub-request in the coordinator's own RequestTimeout, so a hung (not
// crashed) replica surfaces as DeadlineExceeded — and are classified by
// the caller's context: still live means the per-sub-request deadline
// (or a hedge-race cancel) fired and the work can move to another
// replica; ended means the caller is gone and retrying is pointless.
//
// A reply that dies mid-body — the replica was killed while writing
// the response, so the client sees io.ErrUnexpectedEOF or a truncated
// JSON document — is NOT an *client.APIError (the client only builds
// those from complete, decodable error responses); it falls through to
// the default below and is correctly retried elsewhere, exactly like
// the connection reset it almost is. TestTransientTruncatedBody pins
// that classification.
func transient(ctx context.Context, err error) bool {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status == http.StatusServiceUnavailable
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return ctx.Err() == nil
	}
	return true
}

// report feeds one send outcome to the target replica's breaker.
// Context errors are skipped entirely: a cancelled hedge-race loser or
// an expired per-sub-request deadline is evidence of neither health nor
// failure, and recording a success there could close a half-open
// breaker a replica has not earned.
func (c *Coordinator) report(r *replica, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	c.breakers.Report(core.Engine(r.url), breakerErr(err))
}

// breakerErr maps a send outcome to the breaker's vocabulary: only
// transport failures and sheds count against a replica; any other
// served error response is proof of health. Context errors never reach
// here (report drops them).
func breakerErr(err error) error {
	if err == nil {
		return nil
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && apiErr.Status != http.StatusServiceUnavailable {
		return nil
	}
	return fmt.Errorf("%w: %v", core.ErrEngineFailed, err)
}

// sleep blocks for the jittered exponential delay of retry `attempt`
// (0-based), or until ctx ends.
func (c *Coordinator) sleep(ctx context.Context, attempt int) error {
	d := c.cfg.BaseBackoff << uint(attempt)
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	c.jmu.Lock()
	d = time.Duration(c.rng.Int63n(int64(d))) + 1
	c.jmu.Unlock()
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// proxy routes a request whole to its hash-ring replica, failing over
// to the next live replica on transient errors.
func (c *Coordinator) proxy(ctx context.Context, req server.Request) (*server.Response, error) {
	began := time.Now()
	c.nProxied.Add(1)
	var trail []server.ClusterStep
	var lastErr error
	idx := c.hashIndex(req)
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.nRetries.Add(1)
			if err := c.sleep(ctx, attempt-1); err != nil {
				return nil, err
			}
		}
		target, tIdx, skips := c.pickTarget(idx, mc.Range{})
		trail = append(trail, skips...)
		if target == nil {
			lastErr = ErrNoReplicas
			continue
		}
		idx = tIdx + 1
		res, err := c.sendSub(ctx, target, req, nil)
		c.report(target, err)
		if err == nil {
			res.ClusterTrail = append(trail, server.ClusterStep{Replica: target.url, Event: "proxy"})
			res.ElapsedMS = time.Since(began).Milliseconds()
			return res, nil
		}
		trail = append(trail, server.ClusterStep{Replica: target.url, Event: "proxy", Err: err.Error()})
		lastErr = err
		if !transient(ctx, err) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("cluster: giving up after %d attempts: %w", c.cfg.MaxAttempts, lastErr)
}

// hashIndex picks the home replica of a request: a stable hash of the
// fields that identify the computation, so the same request (and in
// jobs mode the same idempotency key) keeps landing on the same
// replica while it is live.
func (c *Coordinator) hashIndex(req server.Request) int {
	h := fnv.New32a()
	h.Write(identity(req))
	return int(h.Sum32() % uint32(len(c.replicas)))
}

// identity is the byte string that names a request's computation for
// routing and audit selection: its idempotency key when it has one,
// otherwise its database, query and seed.
func identity(req server.Request) []byte {
	if req.IdempotencyKey != "" {
		return []byte(req.IdempotencyKey)
	}
	return fmt.Appendf(nil, "%s\x00%s\x00%s\x00%d", req.DB, req.DBText, req.Query, req.Seed)
}

// ReplicaStatz is one replica's row in the coordinator's /statz.
type ReplicaStatz struct {
	URL string `json:"url"`
	Up  bool   `json:"up"`
	// ProbeFailures is the current consecutive-failure streak.
	ProbeFailures int64 `json:"probe_failures"`
	// Health is the replica's integrity state: "healthy", "suspect",
	// "quarantined", or "probation" (see health.go). CleanAudits is its
	// consecutive clean-audit streak while on probation.
	Health      HealthState `json:"health"`
	CleanAudits int         `json:"clean_audits,omitempty"`
}

// Statz is the JSON body of the coordinator's GET /statz.
type Statz struct {
	Replicas     []ReplicaStatz                 `json:"replicas"`
	LiveReplicas int                            `json:"live_replicas"`
	Breakers     map[string]server.BreakerStatz `json:"breakers"`
	Fanouts      int64                          `json:"fanouts"`
	Proxied      int64                          `json:"proxied"`
	Retries      int64                          `json:"retries"`
	Hedges       int64                          `json:"hedges"`
	Reassigns    int64                          `json:"reassigns"`
	// Checkpoint-shipping counters: frames accepted from replicas,
	// frames rejected by coordinator-side validation, resumes planted on
	// replicas, and resumes a replica refused (fingerprint mismatch).
	CheckpointsShipped  int64 `json:"checkpoints_shipped"`
	CheckpointsRejected int64 `json:"checkpoints_rejected"`
	Resumes             int64 `json:"resumes"`
	ResumesRejected     int64 `json:"resumes_rejected"`
	// Fan-out journal counters: successful writes, failed writes, and
	// fan-outs completed by Recover.
	JournalWrites    int64 `json:"journal_writes"`
	JournalErrors    int64 `json:"journal_errors"`
	RecoveredFanouts int64 `json:"recovered_fanouts"`
	// Integrity counters: audit re-executions run / skipped, digest
	// mismatches caught, ranges re-executed away from a liar,
	// attestation failures, quarantine transitions, and replicas passed
	// over in target selection for health reasons.
	Audits          int64 `json:"audits"`
	AuditsSkipped   int64 `json:"audits_skipped"`
	AuditMismatches int64 `json:"audit_mismatches"`
	AuditReplants   int64 `json:"audit_replants"`
	AttestFailures  int64 `json:"attest_failures"`
	Quarantines     int64 `json:"quarantines"`
	QuarantineSkips int64 `json:"quarantine_skips"`
	UptimeMS        int64 `json:"uptime_ms"`
}

// Statz snapshots the coordinator state.
func (c *Coordinator) Statz() Statz {
	st := Statz{
		Breakers:            c.breakers.Snapshot(),
		Fanouts:             c.nFanouts.Load(),
		Proxied:             c.nProxied.Load(),
		Retries:             c.nRetries.Load(),
		Hedges:              c.nHedges.Load(),
		Reassigns:           c.nReassigns.Load(),
		CheckpointsShipped:  c.nCkptShipped.Load(),
		CheckpointsRejected: c.nCkptRejected.Load(),
		Resumes:             c.nResumes.Load(),
		ResumesRejected:     c.nResumesRejected.Load(),
		JournalWrites:       c.nJournalWrites.Load(),
		JournalErrors:       c.nJournalErrors.Load(),
		RecoveredFanouts:    c.nRecovered.Load(),
		Audits:              c.nAudits.Load(),
		AuditsSkipped:       c.nAuditsSkipped.Load(),
		AuditMismatches:     c.nAuditMismatches.Load(),
		AuditReplants:       c.nAuditReplants.Load(),
		AttestFailures:      c.nAttestFails.Load(),
		Quarantines:         c.nQuarantines.Load(),
		QuarantineSkips:     c.nQuarantineSkips.Load(),
		UptimeMS:            time.Since(c.start).Milliseconds(),
	}
	for i, r := range c.replicas {
		up := r.up.Load()
		if up {
			st.LiveReplicas++
		}
		health, streak, _ := c.healthSnapshot(i)
		st.Replicas = append(st.Replicas, ReplicaStatz{URL: r.url, Up: up, ProbeFailures: r.fails.Load(),
			Health: health, CleanAudits: streak})
	}
	return st
}

// Handler returns the coordinator's HTTP surface: the same
// POST /v1/reliability as a single qreld (so clients are oblivious to
// the cluster), plus /healthz, /readyz (ready iff at least one replica
// is up), and /statz.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/reliability", c.handleReliability)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if len(c.liveIndexes()) == 0 {
			http.Error(w, "no live replicas", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ready\n"))
	})
	mux.HandleFunc("/statz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Statz())
	})
	return mux
}

func (c *Coordinator) handleReliability(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, server.ErrorResponse{Error: "use POST", Kind: server.KindBadRequest})
		return
	}
	var req server.Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, server.ErrorResponse{Error: err.Error(), Kind: server.KindBadRequest})
		return
	}
	res, err := c.Do(r.Context(), req)
	if err != nil {
		status, kind := http.StatusBadGateway, server.KindEngineFailed
		var apiErr *client.APIError
		switch {
		case errors.As(err, &apiErr):
			status, kind = apiErr.Status, apiErr.Kind
		case errors.Is(err, ErrNoReplicas):
			status, kind = http.StatusServiceUnavailable, server.KindShedding
			w.Header().Set("Retry-After", "1")
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			status, kind = http.StatusRequestTimeout, server.KindCanceled
		}
		writeJSON(w, status, server.ErrorResponse{Error: err.Error(), Kind: kind})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}
