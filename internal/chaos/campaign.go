package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/big"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"qrel/internal/checkpoint"
	"qrel/internal/core"
	"qrel/internal/faultinject"
	"qrel/internal/logic"
	"qrel/internal/mc"
	"qrel/internal/server"
	"qrel/internal/server/client"
	"qrel/internal/store"
	"qrel/internal/testutil"
	"qrel/internal/unreliable"
	"qrel/internal/workload"
)

// errInjected is the sentinel wrapped into every injected error; a
// failure carrying it is an accepted fault outcome alongside the typed
// taxonomy.
var errInjected = errors.New("chaos: injected fault")

// campaignEngines is the differential-oracle panel: every selectable
// engine, all computing (or approximating) the same reliability, in the
// engine table's order, which seeded campaigns replay.
var campaignEngines = core.Engines()

// Oracle accuracy for core-phase runs. Delta is tiny so that "every
// randomized estimate within eps" is a deterministic verdict in
// practice: the per-check violation probability is 1e-6, negligible
// across a whole campaign, while Hoeffding keeps sample counts small.
const (
	oracleEps   = 0.12
	oracleDelta = 1e-6
)

// mcSampleCap bounds the Theorem 5.12 relative-error estimator, whose
// sample complexity scales with 1/H and can reach tens of millions of
// draws on low-error instances. At the cap it degrades honestly —
// Degraded=true with a widened eps the oracle still holds it to — so
// the campaign exercises the degradation contract instead of spending
// minutes per step on one engine.
const mcSampleCap = 400_000

// budgetFor returns the per-engine sample budget for oracle runs.
func budgetFor(e core.Engine) core.Budget {
	if e == core.EngineMonteCarlo {
		return core.Budget{MaxSamples: mcSampleCap}
	}
	return core.Budget{}
}

// campaign is the executor state for one Run.
type campaign struct {
	cfg  Config
	plan *Plan
	rep  *Report
}

func (c *campaign) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// check evaluates one invariant instance, tallying it in the report.
func (c *campaign) check(inv string, ok bool, format string, args ...any) {
	s := c.rep.Invariants[inv]
	s.Checks++
	if ok {
		return
	}
	s.Failures++
	msg := fmt.Sprintf(format, args...)
	if len(s.Examples) < 5 {
		s.Examples = append(s.Examples, msg)
	}
	c.logf("FAIL %s: %s", inv, msg)
}

// Run executes one campaign: plan from the seed, drive the workload,
// check invariants, and return the report. The returned error covers
// only configuration and planning problems; invariant failures land in
// Report.Passed / Report.Invariants.
//
// Run arms the process-global fault registry; never run two campaigns
// (or a campaign and fault-injecting tests) concurrently.
func Run(cfg Config) (*Report, error) {
	if cfg.Dir == "" {
		return nil, errors.New("chaos: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o777); err != nil {
		return nil, fmt.Errorf("chaos: creating scratch dir: %w", err)
	}
	plan, err := planCampaign(cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Seed:         cfg.Seed,
		Steps:        len(plan.Steps),
		ScheduleHash: plan.Hash(),
		Invariants:   map[string]*InvariantStat{},
	}
	for _, name := range invariantNames() {
		rep.Invariants[name] = &InvariantStat{}
	}
	c := &campaign{cfg: cfg, plan: plan, rep: rep}

	faultinject.Reset()
	faultinject.ResetCounters()
	faultinject.SetCounting(true)
	defer func() {
		faultinject.Reset()
		faultinject.SetCounting(false)
	}()
	baseline := testutil.Snapshot()
	start := time.Now()

	ran := 0
	for i := range plan.Steps {
		if cfg.Duration > 0 && time.Since(start) >= cfg.Duration {
			c.logf("duration cap reached after %d/%d steps", ran, len(plan.Steps))
			break
		}
		st := &plan.Steps[i]
		c.logf("step %d: n=%d uncertain=%d query=%q workers=%d faults=%d resume=%v service=%v",
			st.Index, st.N, st.Uncertain, st.Query, st.Workers,
			len(st.EngineFaults)+len(st.CkptFaults)+len(st.ServerFaults), st.Resume, st.Service)
		c.runStep(st)
		ran++
	}
	faultinject.Reset()
	rep.StepsRun = ran

	// Campaign-end invariants: coverage over the sites the executed
	// steps scheduled, goroutine leaks, stray checkpoint temp files.
	rep.Scheduled = scheduledSites(plan.Steps[:ran])
	counters := faultinject.Counters()
	for _, site := range rep.Scheduled {
		cnt := counters[site]
		c.check(InvCoverage, cnt.Fires > 0,
			"site %s was scheduled but never fired (hits=%d) — the workload never reached it under fault", site, cnt.Hits)
	}
	http.DefaultClient.CloseIdleConnections()
	leaked := testutil.LeakedSince(baseline, 2*time.Second)
	c.check(InvGoroutines, len(leaked) == 0,
		"%d goroutine(s) outlived the campaign; first stack:\n%s", len(leaked), firstOf(leaked))
	c.checkNoTmpFiles(cfg.Dir, "campaign end")

	rep.Sites = counters
	rep.Verdicts = map[string]bool{}
	rep.Passed = true
	for name, s := range rep.Invariants {
		ok := s.Failures == 0
		rep.Verdicts[name] = ok
		if !ok {
			rep.Passed = false
		}
	}
	rep.ElapsedMS = time.Since(start).Milliseconds()
	return rep, nil
}

func firstOf(stacks []string) string {
	if len(stacks) == 0 {
		return ""
	}
	return stacks[0]
}

func scheduledSites(steps []Step) []string {
	seen := map[string]bool{}
	for i := range steps {
		for _, fs := range [][]PlannedFault{steps[i].EngineFaults, steps[i].CkptFaults, steps[i].ServerFaults, steps[i].ClusterFaults, steps[i].StoreFaults} {
			for _, f := range fs {
				seen[f.Site] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// armFaults arms one phase's planned faults on the global registry.
func (c *campaign) armFaults(fs []PlannedFault) {
	for _, pf := range fs {
		var ft faultinject.Fault
		ft.Times = pf.Times
		switch pf.Kind {
		case KindErr:
			ft.Err = fmt.Errorf("%w at %s", errInjected, pf.Site)
		case KindPanic:
			ft.Panic = "chaos-injected"
		case KindDelay:
			ft.Delay = time.Duration(pf.DelayMS) * time.Millisecond
		case KindProbErr:
			ft.Err = fmt.Errorf("%w at %s", errInjected, pf.Site)
			ft.Prob = pf.Prob
			ft.Seed = pf.Seed
		}
		faultinject.Enable(pf.Site, ft)
	}
}

// acceptableErr reports whether a failure under fault is a legitimate
// outcome: the typed taxonomy, the injected sentinel, or the
// checkpoint corruption errors the disk faults provoke.
func acceptableErr(err error) bool {
	return errors.Is(err, errInjected) ||
		errors.Is(err, core.ErrCanceled) ||
		errors.Is(err, core.ErrBudgetExceeded) ||
		errors.Is(err, core.ErrInfeasible) ||
		errors.Is(err, core.ErrEngineFailed) ||
		errors.Is(err, core.ErrCheckpointMismatch) ||
		errors.Is(err, checkpoint.ErrCorruptCheckpoint) ||
		errors.Is(err, store.ErrCorruptPage)
}

// runStep executes one planned step: clean differential phase, fault
// phase, breaker recovery, and the optional resume and service phases.
func (c *campaign) runStep(st *Step) {
	ctx := context.Background()
	faultinject.Reset()
	rng := mc.NewRand(st.Seed)
	db := workload.RandomUDB(rng, st.N, st.Uncertain)
	f, err := logic.Parse(st.Query, db.A.Voc)
	if err != nil {
		c.check(InvExactAgree, false, "step %d: parsing %q: %v", st.Index, st.Query, err)
		return
	}
	opts := core.Options{Eps: oracleEps, Delta: oracleDelta, Seed: st.Seed, Workers: st.Workers}
	phase := time.Now()
	lap := func(name string) {
		c.logf("step %d: %s phase took %v", st.Index, name, time.Since(phase))
		phase = time.Now()
	}

	// Clean phase: the exact world-enumeration reference (always
	// feasible — Uncertain stays under the enumeration cap), then every
	// engine without faults. Engines that succeed cleanly form the
	// step's applicable set; only they are held to invariants under
	// fault (the others fail on fragment mismatch regardless).
	ref, err := core.ReliabilityWith(ctx, core.EngineWorldEnum, db, f, opts)
	if err != nil || ref.R == nil {
		c.check(InvExactAgree, false, "step %d: exact reference (world-enum) failed: %v", st.Index, err)
		return
	}
	applicable := map[core.Engine]bool{core.EngineWorldEnum: true}
	for _, e := range campaignEngines {
		if e == core.EngineWorldEnum {
			continue
		}
		eopts := opts
		eopts.Budget = budgetFor(e)
		res, err := core.ReliabilityWith(ctx, e, db, f, eopts)
		if err != nil {
			continue
		}
		applicable[e] = true
		c.oracle(st, string(e)+" (clean)", res, ref)
	}

	lap("clean")

	// Fault phase: arm the schedule, re-run every engine (including
	// inapplicable ones — their entry sites still fire) plus the auto
	// ladder, all sharing one breaker set so injected crashes trip it.
	br := server.NewBreakers(server.BreakerConfig{Threshold: 2, Cooldown: 5 * time.Millisecond})
	fopts := opts
	fopts.Breaker = br
	c.armFaults(st.EngineFaults)
	for _, e := range campaignEngines {
		eopts := fopts
		eopts.Budget = budgetFor(e)
		res, err := core.ReliabilityWith(ctx, e, db, f, eopts)
		if err != nil {
			if applicable[e] {
				c.check(InvTypedErrors, acceptableErr(err),
					"step %d: %s under fault: error outside the taxonomy: %v", st.Index, e, err)
			}
			continue
		}
		if applicable[e] {
			c.oracle(st, string(e)+" (fault)", res, ref)
		}
	}
	for i := 0; i < 3; i++ {
		res, err := core.ReliabilityWith(ctx, core.EngineAuto, db, f, fopts)
		if err != nil {
			c.check(InvTypedErrors, acceptableErr(err),
				"step %d: auto dispatch under fault: error outside the taxonomy: %v", st.Index, err)
			continue
		}
		c.oracle(st, "auto (fault)", res, ref)
	}
	faultinject.Reset()
	c.coveragePass(ctx, st, db, f, opts)
	lap("fault")
	c.checkBreakers(ctx, st, br, db, f, opts)
	lap("breaker")

	if st.Resume {
		c.resumePhase(ctx, st, db, f, opts)
		lap("resume")
	}
	if st.Service {
		c.servicePhase(ctx, st, db, ref)
		lap("service")
	}
	if st.Cluster {
		c.clusterPhase(ctx, st, db)
		lap("cluster")
	}
	if st.Store {
		c.storePhase(ctx, st, db, f, opts)
		lap("store")
	}
	faultinject.Reset()
}

// coveragePass guarantees that scheduled worker-site faults fire. In
// the all-armed fault phase a worker site can be shadowed by a
// co-armed entry fault on the only engine that reaches it — an
// injected world-enum error returns before any world worker spawns —
// so each such fault is re-armed alone and a reaching engine driven
// through it. Skipped once the campaign counters already show a fire.
func (c *campaign) coveragePass(ctx context.Context, st *Step, db *unreliable.DB, f logic.Formula, opts core.Options) {
	for _, pf := range st.EngineFaults {
		var reach core.Engine
		switch pf.Site {
		case faultinject.SiteWorldWorker:
			reach = core.EngineWorldEnum
		case faultinject.SiteLaneWorker:
			reach = core.EngineMCDirect
		case faultinject.SiteAnswerSet:
			reach = core.EngineWorldEnum
		default:
			continue
		}
		if faultinject.Counters()[pf.Site].Fires > 0 {
			continue
		}
		faultinject.Reset()
		c.armFaults([]PlannedFault{pf})
		copts := opts
		copts.Workers = 2 // the worker paths only exist in parallel mode
		if _, err := core.ReliabilityWith(ctx, reach, db, f, copts); err != nil {
			c.check(InvTypedErrors, acceptableErr(err),
				"step %d: %s coverage run: error outside the taxonomy: %v", st.Index, reach, err)
		}
		faultinject.Reset()
	}
}

// oracle holds one successful result against the exact reference:
// exact guarantees must match bit-for-bit, randomized ones must land
// within their reported (possibly honestly widened, possibly
// EpsSkew-shrunk) eps.
func (c *campaign) oracle(st *Step, label string, res, ref core.Result) {
	if res.Guarantee == core.Exact {
		ok := res.R != nil && res.H != nil && res.R.Cmp(ref.R) == 0 && res.H.Cmp(ref.H) == 0
		c.check(InvExactAgree, ok,
			"step %d: %s: exact result R=%s disagrees with reference R=%s", st.Index, label, ratStr(res.R), ratStr(ref.R))
		return
	}
	allowed := res.Eps
	if c.cfg.EpsSkew > 0 {
		allowed *= c.cfg.EpsSkew
	}
	refR, _ := ref.R.Float64()
	refH, _ := ref.H.Float64()
	var dist, bound float64
	if res.Guarantee == core.RelativeError {
		dist = math.Abs(res.HFloat - refH)
		bound = allowed*refH + 1e-12
	} else {
		dist = math.Abs(res.RFloat - refR)
		bound = allowed + 1e-12
	}
	c.check(InvEpsBound, dist <= bound,
		"step %d: %s: |estimate-truth| = %.3g exceeds the allowed eps %.3g (guarantee %s, degraded=%v)",
		st.Index, label, dist, bound, res.Guarantee, res.Degraded)
}

func ratStr(r *big.Rat) string {
	if r == nil {
		return "<nil>"
	}
	return r.RatString()
}

// checkBreakers verifies that every rung tripped during the fault
// phase re-closes after the faults clear: probe each engine directly
// through the same breaker set until the snapshot shows all-closed.
func (c *campaign) checkBreakers(ctx context.Context, st *Step, br *server.Breakers, db *unreliable.DB, f logic.Formula, opts core.Options) {
	popts := opts
	popts.Breaker = br
	deadline := time.Now().Add(3 * time.Second)
	for {
		open := openRungs(br)
		if len(open) == 0 {
			c.check(InvBreaker, true, "")
			return
		}
		if time.Now().After(deadline) {
			c.check(InvBreaker, false,
				"step %d: breakers still not closed after faults cleared: %s", st.Index, strings.Join(open, ", "))
			return
		}
		for _, e := range campaignEngines {
			_, _ = core.ReliabilityWith(ctx, e, db, f, popts)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func openRungs(br *server.Breakers) []string {
	var out []string
	for name, s := range br.Snapshot() {
		if s.State != "closed" {
			out = append(out, name+"="+s.State)
		}
	}
	sort.Strings(out)
	return out
}

// resumePhase checks the checkpoint bit-identity contract under disk
// faults: an uninterrupted run, then a budget-interrupted run saving
// snapshots with the step's ckpt faults armed (torn writes, bit flips,
// crash windows, failed renames), then a resumed run with the faults
// cleared. The resumed run must reproduce the uninterrupted estimate
// bit-for-bit no matter which snapshots the faults destroyed, and the
// store directory must hold no temp files afterwards.
func (c *campaign) resumePhase(ctx context.Context, st *Step, db *unreliable.DB, f logic.Formula, opts core.Options) {
	// Snapshots hold lanes at 64-sample block boundaries only, so the
	// interrupted half-run must span whole blocks in each of its eight
	// lanes: at half the oracle eps it draws four times the samples.
	opts.Eps = oracleEps / 2
	full, err := core.ReliabilityWith(ctx, core.EngineMCDirect, db, f, opts)
	if err != nil {
		c.check(InvResume, false, "step %d: uninterrupted mc-direct run failed: %v", st.Index, err)
		return
	}
	if full.Samples < 8 {
		return // nothing to interrupt
	}
	dir := filepath.Join(c.cfg.Dir, fmt.Sprintf("step-%03d", st.Index), "ckpt")
	every := full.Samples / 8
	if every < 1 {
		every = 1
	}

	var written checkpoint.Metrics
	store1, err := checkpoint.Open(dir, checkpoint.Options{Metrics: &written})
	if err != nil {
		c.check(InvResume, false, "step %d: opening snapshot store: %v", st.Index, err)
		return
	}
	c.armFaults(st.CkptFaults)
	interrupted := opts
	interrupted.Budget = core.Budget{MaxSamples: full.Samples / 2}
	interrupted.Checkpoint = &core.CheckpointConfig{Store: store1, Every: every}
	if _, err := core.ReliabilityWith(ctx, core.EngineMCDirect, db, f, interrupted); err != nil {
		// A crash-window or rename fault aborting the run mid-save is a
		// legitimate interruption — but it must stay typed/injected.
		c.check(InvTypedErrors, acceptableErr(err),
			"step %d: interrupted run under disk fault: error outside the taxonomy: %v", st.Index, err)
	} else {
		// Half a run at every = full/8 commits at least two snapshots,
		// so one torn or flipped write still leaves one to resume from:
		// the bit-identity check below never passes on a fresh start.
		n := written.Snapshot().Written
		c.check(InvResume, n >= 2,
			"step %d: interrupted run committed %d snapshot(s), want at least 2", st.Index, n)
	}
	faultinject.Reset()

	store2, err := checkpoint.Open(dir, checkpoint.Options{})
	if err != nil {
		c.check(InvResume, false, "step %d: reopening snapshot store: %v", st.Index, err)
		return
	}
	resumed := opts
	resumed.Checkpoint = &core.CheckpointConfig{Store: store2, Every: every, Resume: true}
	res, err := core.ReliabilityWith(ctx, core.EngineMCDirect, db, f, resumed)
	ok := err == nil && !res.Degraded && res.Samples == full.Samples &&
		res.HFloat == full.HFloat && res.RFloat == full.RFloat
	c.check(InvResume, ok,
		"step %d: resumed run (err=%v, samples=%d, h=%v, r=%v, degraded=%v) is not bit-identical to the uninterrupted run (samples=%d, h=%v, r=%v)",
		st.Index, err, res.Samples, res.HFloat, res.RFloat, res.Degraded, full.Samples, full.HFloat, full.RFloat)
	// The resumed run's completion snapshot prunes crash-window
	// orphans; nothing transient may survive it.
	c.checkNoTmpFiles(dir, fmt.Sprintf("step %d resume", st.Index))
}

// checkNoTmpFiles scans a directory tree for leftover checkpoint temp
// files.
func (c *campaign) checkNoTmpFiles(root, when string) {
	var stray []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".tmp") {
			stray = append(stray, path)
		}
		return nil
	})
	c.check(InvTmpFiles, len(stray) == 0, "%s: leftover temp file(s): %s", when, strings.Join(stray, ", "))
}

// servicePhase drives a live in-process qreld: a clean reference job
// on its own server, then a chaos server that takes plain requests
// under serving-layer faults, accepts durable jobs, gets drained
// mid-flight (or has a completed job's journal rewound into the crash
// window), restarts on the same directory, and must recover every job
// to the reference result with none lost or double-finalized.
func (c *campaign) servicePhase(ctx context.Context, st *Step, db *unreliable.DB, ref core.Result) {
	stepDir := filepath.Join(c.cfg.Dir, fmt.Sprintf("step-%03d", st.Index))
	jobReq := server.Request{
		DB: "g", Query: st.Query, Engine: string(core.EngineMCDirect),
		Eps: 0.03, Delta: oracleDelta, Seed: st.Seed + 1, Workers: st.Workers,
		IdempotencyKey: fmt.Sprintf("chaos-%d-%d-a", c.cfg.Seed, st.Index),
	}
	refJob := c.runRefJob(ctx, st, db, filepath.Join(stepDir, "jobs-ref"), jobReq)

	srvCfg := server.Config{
		Workers: 2, QueueDepth: 16,
		DefaultTimeout: 60 * time.Second, MaxTimeout: 120 * time.Second,
		CheckpointDir: filepath.Join(stepDir, "jobs"), CheckpointEvery: 2000,
	}
	s1 := server.New(srvCfg)
	s1.Register("g", db)
	ts1 := httptest.NewServer(s1.Handler())

	// Serving-fault sub-phase: plain reliability requests while the
	// step's server faults are armed. Every response must be a valid
	// result (held to the oracle) or a kinded error body.
	c.armFaults(st.ServerFaults)
	for i := 0; i < 4; i++ {
		rq := server.Request{
			DB: "g", Query: st.Query, Eps: 0.1, Delta: oracleDelta,
			Seed: st.Seed + int64(10+i), Workers: st.Workers,
		}
		c.checkServiceResponse(st, ts1.URL, rq, ref)
	}
	faultinject.Reset()

	// Durable jobs: one keyed job (resubmitted once — must dedupe), one
	// sibling job.
	cl := client.New(ts1.URL)
	ja, err := cl.SubmitJob(ctx, jobReq)
	if err != nil {
		c.check(InvJobs, false, "step %d: job submit failed: %v", st.Index, err)
		ts1.Close()
		s1.Close()
		return
	}
	jaDup, err := cl.SubmitJob(ctx, jobReq)
	c.check(InvJobs, err == nil && jaDup != nil && jaDup.ID == ja.ID,
		"step %d: idempotent resubmit returned a different job (want %s, got %+v, err=%v)", st.Index, ja.ID, jaDup, err)
	reqB := jobReq
	reqB.Seed = st.Seed + 2
	reqB.IdempotencyKey = fmt.Sprintf("chaos-%d-%d-b", c.cfg.Seed, st.Index)
	jb, err := cl.SubmitJob(ctx, reqB)
	if err != nil {
		c.check(InvJobs, false, "step %d: second job submit failed: %v", st.Index, err)
		ts1.Close()
		s1.Close()
		return
	}

	if st.Kill {
		// Crash-window variant: let the keyed job finish, then rewind
		// its journal to "running" — the window between the completion
		// snapshot and the journal update. Recovery must finalize it by
		// replaying the store, not by resampling.
		wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		fin, err := cl.WaitJob(wctx, ja.ID, 2*time.Millisecond)
		cancel()
		if err != nil || fin.State != server.JobDone {
			c.check(InvJobs, false, "step %d: pre-crash job did not finish: %+v err=%v", st.Index, fin, err)
		} else if err := rewindJournal(srvCfg.CheckpointDir, ja.ID); err != nil {
			c.check(InvJobs, false, "step %d: rewinding journal: %v", st.Index, err)
		}
		_ = s1.Drain(ctx) // graceful: lets the sibling job finish
	} else {
		// Mid-flight drain: a pre-canceled deadline cancels in-flight
		// jobs, which must suspend (stay "running") rather than fail.
		time.Sleep(15 * time.Millisecond)
		canceled, cancel := context.WithCancel(ctx)
		cancel()
		_ = s1.Drain(canceled)
	}
	ts1.Close()

	// Restart on the same directory: recovery re-admits every
	// unfinished journal and each job must reach done.
	s2 := server.New(srvCfg)
	s2.Register("g", db)
	ts2 := httptest.NewServer(s2.Handler())
	if _, err := s2.RecoverJobs(); err != nil {
		c.check(InvJobs, false, "step %d: RecoverJobs: %v", st.Index, err)
	}
	cl2 := client.New(ts2.URL)
	finals := map[string]*server.JobStatus{}
	for _, id := range []string{ja.ID, jb.ID} {
		wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		fin, err := cl2.WaitJob(wctx, id, 2*time.Millisecond)
		cancel()
		ok := err == nil && fin != nil && fin.State == server.JobDone && fin.Result != nil && !fin.Result.Degraded
		c.check(InvJobs, ok, "step %d: job %s after restart: %+v err=%v (want done, full accuracy)", st.Index, id, fin, err)
		if ok {
			finals[id] = fin
		}
	}
	if refJob != nil && finals[ja.ID] != nil {
		got, want := finals[ja.ID].Result, refJob.Result
		c.check(InvJobs, got.R == want.R && got.H == want.H && got.Samples == want.Samples,
			"step %d: recovered job (r=%v h=%v n=%d) diverged from the uninterrupted reference (r=%v h=%v n=%d)",
			st.Index, got.R, got.H, got.Samples, want.R, want.H, want.Samples)
	}
	ts2.Close()
	s2.Close()
}

// runRefJob runs jobReq to completion on a clean throwaway server and
// returns its final status (nil after a counted failure).
func (c *campaign) runRefJob(ctx context.Context, st *Step, db *unreliable.DB, dir string, req server.Request) *server.JobStatus {
	srv := server.New(server.Config{
		Workers: 2, DefaultTimeout: 60 * time.Second, MaxTimeout: 120 * time.Second,
		CheckpointDir: dir, CheckpointEvery: 2000,
	})
	srv.Register("g", db)
	ts := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer ts.Close()
	cl := client.New(ts.URL)
	jst, err := cl.SubmitJob(ctx, req)
	if err != nil {
		c.check(InvJobs, false, "step %d: reference job submit failed: %v", st.Index, err)
		return nil
	}
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	fin, err := cl.WaitJob(wctx, jst.ID, 2*time.Millisecond)
	if err != nil || fin.State != server.JobDone || fin.Result == nil {
		c.check(InvJobs, false, "step %d: reference job did not finish: %+v err=%v", st.Index, fin, err)
		return nil
	}
	return fin
}

// checkServiceResponse posts one reliability request and holds the
// response to the service-level contract: 200 with an oracle-valid
// body, or an error body carrying a failure kind.
func (c *campaign) checkServiceResponse(st *Step, url string, rq server.Request, ref core.Result) {
	body, err := json.Marshal(rq)
	if err != nil {
		c.check(InvTypedErrors, false, "step %d: marshaling request: %v", st.Index, err)
		return
	}
	resp, err := http.Post(url+"/v1/reliability", "application/json", bytes.NewReader(body))
	if err != nil {
		c.check(InvTypedErrors, false, "step %d: service transport failed under fault: %v", st.Index, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var ec server.ErrorResponse
		ok := json.NewDecoder(resp.Body).Decode(&ec) == nil && ec.Kind != ""
		c.check(InvTypedErrors, ok,
			"step %d: service error response without a failure kind (status %d)", st.Index, resp.StatusCode)
		return
	}
	var out server.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		c.check(InvTypedErrors, false, "step %d: undecodable 200 body: %v", st.Index, err)
		return
	}
	if out.RExact != "" {
		r, ok := new(big.Rat).SetString(out.RExact)
		c.check(InvExactAgree, ok && r.Cmp(ref.R) == 0,
			"step %d: service exact result %s disagrees with reference %s", st.Index, out.RExact, ratStr(ref.R))
		return
	}
	allowed := out.Eps
	if c.cfg.EpsSkew > 0 {
		allowed *= c.cfg.EpsSkew
	}
	refR, _ := ref.R.Float64()
	dist := math.Abs(out.R - refR)
	c.check(InvEpsBound, dist <= allowed+1e-12,
		"step %d: service estimate |r-truth| = %.3g exceeds the allowed eps %.3g (engine %s)",
		st.Index, dist, allowed+1e-12, out.Engine)
}

// rewindJournal rewrites a finished job's journal back to "running"
// with no result — the on-disk state a crash between the completion
// snapshot and the journal update leaves behind.
func rewindJournal(checkpointDir, id string) error {
	path := filepath.Join(checkpointDir, id, "job.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var st server.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	st.State = server.JobRunning
	st.Result = nil
	out, err := json.MarshalIndent(&st, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o666)
}
