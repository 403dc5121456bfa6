package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"qrel/internal/checkpoint"
	"qrel/internal/cluster"
	"qrel/internal/core"
	"qrel/internal/faultinject"
	"qrel/internal/server"
	"qrel/internal/server/client"
	"qrel/internal/unreliable"
)

// clusterEstimate is the estimate-defining subset of a Response: the
// fields the multi-node invariant holds bit-identical between a
// coordinator-merged answer and the single-node reference. Trails and
// timings are deliberately excluded.
type clusterEstimate struct {
	R, H       float64
	Eps, Delta float64
	Samples    int
	Engine     string
	Guarantee  string
	Class      string
	Seed       int64
	Degraded   bool
}

func clusterEstOf(res *server.Response) clusterEstimate {
	return clusterEstimate{R: res.R, H: res.H, Eps: res.Eps, Delta: res.Delta, Samples: res.Samples,
		Engine: res.Engine, Guarantee: res.Guarantee, Class: res.Class, Seed: res.Seed, Degraded: res.Degraded}
}

// chaosFleet is a set of in-process qreld replicas the cluster phase
// drives a coordinator against, all serving the step's database.
type chaosFleet struct {
	servers []*server.Server
	fronts  []*httptest.Server
	urls    []string
}

func startChaosFleet(db *unreliable.DB, n int, cfg func(i int) server.Config) *chaosFleet {
	f := &chaosFleet{}
	for i := 0; i < n; i++ {
		c := server.Config{Workers: 2, DefaultTimeout: 60 * time.Second, MaxTimeout: 120 * time.Second}
		if cfg != nil {
			c = cfg(i)
		}
		if c.ReplicaID == "" {
			c.ReplicaID = fmt.Sprintf("chaos-replica-%d", i)
		}
		s := server.New(c)
		s.Register("g", db)
		ts := httptest.NewServer(s.Handler())
		f.servers = append(f.servers, s)
		f.fronts = append(f.fronts, ts)
		f.urls = append(f.urls, ts.URL)
	}
	return f
}

// close is idempotent with kill: both layers tolerate double closes.
func (f *chaosFleet) close() {
	for i := range f.fronts {
		f.fronts[i].Close()
		f.servers[i].Close()
	}
}

// kill shuts replica i down hard, severing in-flight connections.
func (f *chaosFleet) kill(i int) {
	f.fronts[i].CloseClientConnections()
	f.fronts[i].Close()
	f.servers[i].Close()
}

// clusterCoord builds a campaign-speed coordinator over urls.
func (c *campaign) clusterCoord(urls []string, mutate func(*cluster.Config)) (*cluster.Coordinator, error) {
	cfg := cluster.Config{
		Replicas:           urls,
		ProbeInterval:      5 * time.Millisecond,
		ProbeTimeout:       250 * time.Millisecond,
		ProbeFailThreshold: 2,
		BaseBackoff:        time.Millisecond,
		MaxBackoff:         10 * time.Millisecond,
		JobPoll:            2 * time.Millisecond,
		Seed:               c.cfg.Seed + 9,
		Breaker:            server.BreakerConfig{Threshold: 3, Cooldown: 10 * time.Millisecond},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return cluster.New(cfg)
}

// waitLive polls the coordinator until its live-replica count matches.
func waitLive(coord *cluster.Coordinator, want int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if coord.Statz().LiveReplicas == want {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// clusterPhase is the multi-node arm of the campaign: a coordinator
// over in-process replica fleets must answer the step's parallel
// monte-carlo request bit-identically to a single node across replica
// counts, coordinator restarts, and the step's scheduled fault
// scenarios (probe-visible partition, lost send / slow replica with
// hedging, mid-run replica kill with reassignment), and durable
// sub-jobs must be conserved across repeated fan-outs.
func (c *campaign) clusterPhase(ctx context.Context, st *Step, db *unreliable.DB) {
	faultinject.Reset()
	req := server.Request{
		DB: "g", Query: st.Query, Engine: string(core.EngineMCDirect),
		Eps: 0.05, Delta: 0.05, Seed: st.Seed + 3, Workers: 2,
	}

	// Single-node Workers=2 reference on a dedicated replica.
	ref := startChaosFleet(db, 1, nil)
	refRes, err := client.New(ref.urls[0]).Reliability(ctx, req)
	ref.close()
	if err != nil {
		c.check(InvCluster, false, "step %d: single-node reference run failed: %v", st.Index, err)
		return
	}
	want := clusterEstOf(refRes)

	c.clusterTopologyMatrix(ctx, st, db, req, want)
	c.clusterEvalMixScenario(ctx, st, db, req, want)
	c.clusterRestart(ctx, st, db, req, want)
	c.clusterJobsConservation(ctx, st, db, req, want)

	// The work-conservation scenarios need a run long enough to kill a
	// replica (or the coordinator) in the middle of: a tighter eps and a
	// dense checkpoint cadence. Its single-node reference is computed
	// once and shared.
	slowReq := server.Request{
		DB: "g", Query: st.Query, Engine: string(core.EngineMCDirect),
		Eps: 0.004, Delta: 0.05, Seed: st.Seed + 5, Workers: 2,
	}
	var slowWant clusterEstimate
	slowRef := false
	for _, pf := range st.ClusterFaults {
		if pf.Site == faultinject.SiteClusterCkptShip || pf.Site == faultinject.SiteClusterJournalCrash {
			ref := startChaosFleet(db, 1, nil)
			refRes, err := client.New(ref.urls[0]).Reliability(ctx, slowReq)
			ref.close()
			if err != nil {
				c.check(InvClusterResume, false, "step %d: slow single-node reference run failed: %v", st.Index, err)
				return
			}
			slowWant, slowRef = clusterEstOf(refRes), true
			break
		}
	}

	for _, pf := range st.ClusterFaults {
		switch pf.Site {
		case faultinject.SiteClusterProbe:
			c.clusterPartitionScenario(ctx, st, db, req, want, pf)
		case faultinject.SiteClusterSend:
			c.clusterSendScenario(ctx, st, db, req, want, pf)
		case faultinject.SiteClusterReassign:
			c.clusterKillScenario(ctx, st, db, req, want, pf)
		case faultinject.SiteClusterCkptShip:
			if slowRef {
				c.clusterShipScenario(ctx, st, db, slowReq, slowWant, pf)
			}
		case faultinject.SiteClusterJournalCrash:
			if slowRef {
				c.clusterJournalScenario(ctx, st, db, req, want, pf)
				c.clusterCrashRecoveryScenario(ctx, st, db, slowReq, slowWant)
			}
		case faultinject.SiteClusterComputeCorrupt:
			c.clusterCorruptScenario(ctx, st, db, req, want, pf)
		case faultinject.SiteClusterAudit:
			c.clusterAuditFaultScenario(ctx, st, db, req, want, pf)
		}
	}
	faultinject.Reset()
}

// clusterTopologyMatrix checks bit-identity for 1 (pure proxy), 2, and
// 3 replica fan-outs of the same seeded request.
func (c *campaign) clusterTopologyMatrix(ctx context.Context, st *Step, db *unreliable.DB, req server.Request, want clusterEstimate) {
	for _, n := range []int{1, 2, 3} {
		f := startChaosFleet(db, n, nil)
		coord, err := c.clusterCoord(f.urls, nil)
		if err != nil {
			c.check(InvCluster, false, "step %d: building %d-replica coordinator: %v", st.Index, n, err)
			f.close()
			continue
		}
		res, err := coord.Do(ctx, req)
		ok := err == nil && clusterEstOf(res) == want
		c.check(InvCluster, ok,
			"step %d: %d-replica merged estimate diverged from single-node (err=%v, got=%+v, want=%+v)",
			st.Index, n, err, estOrNil(res), want)
		coord.Close()
		f.close()
	}
}

// clusterEvalMixScenario fans the request out over replicas that
// disagree on evaluation mode — one forces the interpreter, one the
// compiled bytecode path — and holds the merged estimate to the
// single-node reference. The modes are bit-identical per lane, so a
// mixed-version fleet must merge (and pass attestation) exactly like a
// homogeneous one; the run is repeated with a vm/compile fault armed,
// which demotes the compiled replica to the interpreter mid-campaign
// without changing a single bit of the answer.
func (c *campaign) clusterEvalMixScenario(ctx context.Context, st *Step, db *unreliable.DB, req server.Request, want clusterEstimate) {
	modes := []string{string(core.EvalInterpreted), string(core.EvalCompiled)}
	f := startChaosFleet(db, 2, func(i int) server.Config {
		return server.Config{Workers: 2, DefaultTimeout: 60 * time.Second, MaxTimeout: 120 * time.Second,
			DefaultEval: modes[i]}
	})
	defer f.close()
	coord, err := c.clusterCoord(f.urls, nil)
	if err != nil {
		c.check(InvCluster, false, "step %d: building eval-mix coordinator: %v", st.Index, err)
		return
	}
	defer coord.Close()
	for _, armed := range []bool{false, true} {
		label := "mixed eval modes"
		if armed {
			label = "mixed eval modes + vm/compile fault"
			faultinject.Enable(faultinject.SiteVMCompile, faultinject.Fault{Err: fmt.Errorf("%w at %s", errInjected, faultinject.SiteVMCompile)})
		}
		res, err := coord.Do(ctx, req)
		if armed {
			faultinject.Reset()
		}
		ok := err == nil && clusterEstOf(res) == want
		c.check(InvCluster, ok,
			"step %d: %s: merged estimate diverged from single-node (err=%v, got=%+v, want=%+v)",
			st.Index, label, err, estOrNil(res), want)
	}
}

// clusterRestart rebuilds a coordinator from the same config mid-life:
// the successor must answer identically — the coordinator holds no
// state the estimate depends on.
func (c *campaign) clusterRestart(ctx context.Context, st *Step, db *unreliable.DB, req server.Request, want clusterEstimate) {
	f := startChaosFleet(db, 2, nil)
	defer f.close()
	for run := 0; run < 2; run++ {
		coord, err := c.clusterCoord(f.urls, nil)
		if err != nil {
			c.check(InvCluster, false, "step %d: coordinator restart %d: %v", st.Index, run, err)
			return
		}
		res, err := coord.Do(ctx, req)
		ok := err == nil && clusterEstOf(res) == want
		c.check(InvCluster, ok,
			"step %d: coordinator incarnation %d diverged from single-node (err=%v, got=%+v, want=%+v)",
			st.Index, run, err, estOrNil(res), want)
		coord.Close()
	}
}

// clusterJobsConservation fans the same keyed request out twice through
// the durable-jobs API: both answers must match the reference and the
// replicas must have journaled exactly one sub-job per lane range — the
// second fan-out re-attaches, nothing is lost or duplicated.
func (c *campaign) clusterJobsConservation(ctx context.Context, st *Step, db *unreliable.DB, req server.Request, want clusterEstimate) {
	dir := filepath.Join(c.cfg.Dir, fmt.Sprintf("step-%03d", st.Index), "cluster-jobs")
	f := startChaosFleet(db, 2, func(i int) server.Config {
		return server.Config{
			Workers: 2, QueueDepth: 16,
			DefaultTimeout: 60 * time.Second, MaxTimeout: 120 * time.Second,
			CheckpointDir: filepath.Join(dir, strconv.Itoa(i)), CheckpointEvery: 2000,
		}
	})
	defer f.close()
	coord, err := c.clusterCoord(f.urls, func(cfg *cluster.Config) { cfg.UseJobs = true })
	if err != nil {
		c.check(InvCluster, false, "step %d: building jobs-mode coordinator: %v", st.Index, err)
		return
	}
	defer coord.Close()
	jreq := req
	jreq.IdempotencyKey = fmt.Sprintf("chaos-cluster-%d-%d", c.cfg.Seed, st.Index)
	first, err1 := coord.Do(ctx, jreq)
	second, err2 := coord.Do(ctx, jreq)
	ok := err1 == nil && err2 == nil && clusterEstOf(first) == want && clusterEstOf(second) == want
	c.check(InvCluster, ok,
		"step %d: jobs-mode fan-outs diverged (err1=%v, err2=%v, first=%+v, second=%+v, want=%+v)",
		st.Index, err1, err2, estOrNil(first), estOrNil(second), want)
	var submitted int64
	for _, s := range f.servers {
		if js := s.Statz().Jobs; js != nil {
			submitted += js.Submitted
		}
	}
	c.check(InvCluster, submitted == 2,
		"step %d: two identical fan-outs journaled %d sub-jobs, want exactly 2 (one per range, re-attached on rerun)",
		st.Index, submitted)
}

// clusterPartitionScenario arms the planned probe fault (unbounded, so
// every probe fails) until the whole replica set reads down, requires
// the typed no-replicas error, then heals and requires a bit-identical
// answer.
func (c *campaign) clusterPartitionScenario(ctx context.Context, st *Step, db *unreliable.DB, req server.Request, want clusterEstimate, pf PlannedFault) {
	f := startChaosFleet(db, 2, nil)
	defer f.close()
	coord, err := c.clusterCoord(f.urls, func(cfg *cluster.Config) { cfg.MaxAttempts = 2 })
	if err != nil {
		c.check(InvCluster, false, "step %d: building partition coordinator: %v", st.Index, err)
		return
	}
	defer coord.Close()

	faultinject.Reset()
	c.armFaults([]PlannedFault{pf})
	if !waitLive(coord, 0, 5*time.Second) {
		c.check(InvCluster, false, "step %d: replicas never read down under a fully failing probe", st.Index)
		faultinject.Reset()
		return
	}
	_, err = coord.Do(ctx, req)
	c.check(InvCluster, errors.Is(err, cluster.ErrNoReplicas),
		"step %d: partitioned Do error = %v, want ErrNoReplicas", st.Index, err)

	faultinject.Reset()
	if !waitLive(coord, 2, 5*time.Second) {
		c.check(InvCluster, false, "step %d: replicas never healed after the probe fault cleared", st.Index)
		return
	}
	res, err := coord.Do(ctx, req)
	ok := err == nil && clusterEstOf(res) == want
	c.check(InvCluster, ok,
		"step %d: post-heal estimate diverged from single-node (err=%v, got=%+v, want=%+v)",
		st.Index, err, estOrNil(res), want)
}

// clusterSendScenario arms the planned send fault on a two-replica
// fan-out. A one-shot error must be absorbed by retry/reassignment; a
// one-shot delay must trip the hedge (the scenario turns hedging on and
// the fast duplicate must win). Either way the answer is bit-identical.
func (c *campaign) clusterSendScenario(ctx context.Context, st *Step, db *unreliable.DB, req server.Request, want clusterEstimate, pf PlannedFault) {
	f := startChaosFleet(db, 2, nil)
	defer f.close()
	coord, err := c.clusterCoord(f.urls, func(cfg *cluster.Config) {
		if pf.Kind == KindDelay {
			cfg.HedgeAfter = 10 * time.Millisecond
		}
	})
	if err != nil {
		c.check(InvCluster, false, "step %d: building send-fault coordinator: %v", st.Index, err)
		return
	}
	defer coord.Close()
	faultinject.Reset()
	c.armFaults([]PlannedFault{pf})
	res, err := coord.Do(ctx, req)
	faultinject.Reset()
	ok := err == nil && clusterEstOf(res) == want
	c.check(InvCluster, ok,
		"step %d: estimate under a %s send fault diverged (err=%v, got=%+v, want=%+v)",
		st.Index, pf.Kind, err, estOrNil(res), want)
	stz := coord.Statz()
	if pf.Kind == KindDelay {
		c.check(InvCluster, stz.Hedges >= 1,
			"step %d: a %dms send delay with hedging on produced no hedge", st.Index, pf.DelayMS)
	} else {
		c.check(InvCluster, stz.Retries >= 1,
			"step %d: an injected send error produced no retry", st.Index)
	}
}

// clusterKillScenario is the replica-loss drill: every send is held
// open briefly, one replica is hard-killed inside that window, and the
// planned reassignment fault makes the first reassignment itself fail —
// the retry budget must still land the orphaned range on a survivor
// with the merged answer unchanged. The armed fault firing is what
// proves (via the campaign coverage invariant) that the kill path ran.
func (c *campaign) clusterKillScenario(ctx context.Context, st *Step, db *unreliable.DB, req server.Request, want clusterEstimate, pf PlannedFault) {
	f := startChaosFleet(db, 3, nil)
	defer f.close()
	coord, err := c.clusterCoord(f.urls, func(cfg *cluster.Config) { cfg.MaxAttempts = 8 })
	if err != nil {
		c.check(InvCluster, false, "step %d: building kill-scenario coordinator: %v", st.Index, err)
		return
	}
	defer coord.Close()

	faultinject.Reset()
	c.armFaults([]PlannedFault{pf})
	faultinject.Enable(faultinject.SiteClusterSend, faultinject.Fault{Delay: 40 * time.Millisecond})
	type out struct {
		res *server.Response
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, doErr := coord.Do(ctx, req)
		done <- out{res, doErr}
	}()
	time.Sleep(10 * time.Millisecond)
	f.kill(0)
	o := <-done
	faultinject.Reset()

	ok := o.err == nil && clusterEstOf(o.res) == want
	c.check(InvCluster, ok,
		"step %d: post-kill merged estimate diverged from single-node (err=%v, got=%+v, want=%+v)",
		st.Index, o.err, estOrNil(o.res), want)
	c.check(InvCluster, coord.Statz().Reassigns >= 1,
		"step %d: killing a replica mid-fan-out forced no reassignment", st.Index)
}

// shipFleet starts a jobs-enabled two-replica fleet with a dense
// checkpoint cadence under dir, and a work-conserving coordinator over
// it (jobs mode, fast checkpoint polling, mutate applied last). Each
// replica's four-lane range commits once per 256 of its samples: the
// frames then land densely enough, and the commits stretch the run
// long enough, for a kill to fall between shipped frames mid-run.
func (c *campaign) shipFleet(db *unreliable.DB, dir string, mutate func(*cluster.Config)) (*chaosFleet, *cluster.Coordinator, error) {
	f := startChaosFleet(db, 2, func(i int) server.Config {
		return server.Config{
			Workers: 2, QueueDepth: 16,
			DefaultTimeout: 60 * time.Second, MaxTimeout: 120 * time.Second,
			CheckpointDir: filepath.Join(dir, strconv.Itoa(i)), CheckpointEvery: 256,
		}
	})
	coord, err := c.clusterCoord(f.urls, func(cfg *cluster.Config) {
		cfg.UseJobs = true
		cfg.MaxAttempts = 8
		cfg.JobPoll = time.Millisecond
		cfg.CheckpointPoll = time.Millisecond
		if mutate != nil {
			mutate(cfg)
		}
	})
	if err != nil {
		f.close()
		return nil, nil, err
	}
	return f, coord, nil
}

// maxJobSamples reads a replica's on-disk job snapshot stores and
// returns the largest checkpointed sample count — the replica's true
// durable progress, readable even after the replica is dead.
func maxJobSamples(ckptDir string) int {
	ents, err := os.ReadDir(ckptDir)
	if err != nil {
		return 0
	}
	best := 0
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		store, err := checkpoint.Open(filepath.Join(ckptDir, e.Name(), "ckpt"), checkpoint.Options{})
		if err != nil {
			continue
		}
		payload, err := store.LoadLatest()
		if err != nil {
			continue
		}
		var st struct {
			Samples int `json:"samples"`
		}
		if json.Unmarshal(payload, &st) == nil && st.Samples > best {
			best = st.Samples
		}
	}
	return best
}

// waitShipped polls the coordinator until at least n checkpoint frames
// have been accepted (both ranges checkpoint on the same cadence, so a
// small n implies every range has shipped).
func waitShipped(coord *cluster.Coordinator, n int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if coord.Statz().CheckpointsShipped >= n {
			return true
		}
		time.Sleep(500 * time.Microsecond)
	}
	return false
}

// clusterShipScenario is the work-conservation drill. Part A (no fault
// armed): kill a replica once its range has shipped a checkpoint; the
// survivor must resume from the shipped state, the merged answer must
// stay bit-identical, and the waste — the dead replica's durable
// progress beyond the resumed sequence — must stay within a few
// shipping intervals. Part B (the planned fault armed, which tampers
// every accepted frame's fingerprint): the same kill must degrade to a
// replica-rejected resume (resume-rejected in the trail) and a clean
// restart with the identical answer — corruption costs work, never
// correctness.
func (c *campaign) clusterShipScenario(ctx context.Context, st *Step, db *unreliable.DB, req server.Request, want clusterEstimate, pf PlannedFault) {
	type out struct {
		res *server.Response
		err error
	}
	run := func(part string, key string, arm bool) (*server.Response, *cluster.Coordinator, int, bool) {
		dir := filepath.Join(c.cfg.Dir, fmt.Sprintf("step-%03d", st.Index), "cluster-ship-"+part)
		f, coord, err := c.shipFleet(db, dir, nil)
		if err != nil {
			c.check(InvClusterResume, false, "step %d: building ship-scenario fleet: %v", st.Index, err)
			return nil, nil, 0, false
		}
		defer f.close()
		faultinject.Reset()
		if arm {
			c.armFaults([]PlannedFault{pf})
		}
		kreq := req
		kreq.IdempotencyKey = key
		done := make(chan out, 1)
		go func() {
			res, doErr := coord.Do(ctx, kreq)
			done <- out{res, doErr}
		}()
		if !waitShipped(coord, 3, 10*time.Second) {
			c.check(InvClusterResume, false, "step %d: %s: no checkpoint shipped before the run finished", st.Index, part)
			coord.Close()
			return nil, nil, 0, false
		}
		time.Sleep(3 * time.Millisecond) // let the slower range's frame land too
		f.kill(0)
		o := <-done
		faultinject.Reset()
		ok := o.err == nil && clusterEstOf(o.res) == want
		c.check(InvClusterResume, ok,
			"step %d: %s: post-kill estimate diverged from single-node (err=%v, got=%+v, want=%+v)",
			st.Index, part, o.err, estOrNil(o.res), want)
		return o.res, coord, maxJobSamples(filepath.Join(dir, "0")), ok
	}

	// Part A: honest shipping — the survivor resumes the killed range.
	res, coord, progress, ok := run("resume", fmt.Sprintf("chaos-ship-%d-%d", c.cfg.Seed, st.Index), false)
	if coord != nil {
		stz := coord.Statz()
		coord.Close()
		if ok {
			c.check(InvClusterWork, stz.CheckpointsShipped >= 1 && stz.Resumes >= 1,
				"step %d: kill with shipping on produced no resume (shipped=%d resumes=%d)",
				st.Index, stz.CheckpointsShipped, stz.Resumes)
			maxSeq := 0
			for _, s := range res.ClusterTrail {
				if s.Event == "resume" && s.Seq > maxSeq {
					maxSeq = s.Seq
				}
			}
			c.check(InvClusterWork, res.Resumed && maxSeq > 0,
				"step %d: resumed response carries no positive resume sequence (resumed=%v seq=%d)",
				st.Index, res.Resumed, maxSeq)
			c.check(InvClusterWork, maxSeq <= progress,
				"step %d: resume sequence %d exceeds the killed replica's durable progress %d",
				st.Index, maxSeq, progress)
			c.check(InvClusterWork, progress-maxSeq <= 8*1000,
				"step %d: kill wasted %d samples (progress %d, resumed at %d), more than 8 shipping intervals",
				st.Index, progress-maxSeq, progress, maxSeq)
		}
	}

	// Part B: every shipped frame is tampered in flight — the planted
	// resume must be rejected by the survivor and the range restarted
	// clean, with the answer unchanged.
	res, coord, _, ok = run("reject", fmt.Sprintf("chaos-ship-reject-%d-%d", c.cfg.Seed, st.Index), true)
	if coord != nil {
		stz := coord.Statz()
		coord.Close()
		if ok {
			rejected := false
			for _, s := range res.ClusterTrail {
				if s.Event == "resume-rejected" {
					rejected = true
				}
			}
			c.check(InvClusterResume, rejected && stz.ResumesRejected >= 1,
				"step %d: tampered shipped checkpoint was not replica-rejected (trail=%v statz=%d)",
				st.Index, rejected, stz.ResumesRejected)
		}
	}
}

// clusterJournalScenario arms the planned journal-crash fault (one torn
// journal write) on a journaled jobs-mode fan-out: the answer must be
// unaffected — the journal is a recovery accelerator, never in the
// correctness path — the failure must be counted, and a later Recover
// must tolerate both the repaired record and a deliberately torn one.
func (c *campaign) clusterJournalScenario(ctx context.Context, st *Step, db *unreliable.DB, req server.Request, want clusterEstimate, pf PlannedFault) {
	base := filepath.Join(c.cfg.Dir, fmt.Sprintf("step-%03d", st.Index))
	jdir := filepath.Join(base, "cluster-journal")
	f, coord, err := c.shipFleet(db, filepath.Join(base, "cluster-journal-ckpt"), func(cfg *cluster.Config) {
		cfg.JournalDir = jdir
	})
	if err != nil {
		c.check(InvClusterResume, false, "step %d: building journal-scenario fleet: %v", st.Index, err)
		return
	}
	defer f.close()
	defer coord.Close()

	faultinject.Reset()
	c.armFaults([]PlannedFault{pf})
	jreq := req
	jreq.IdempotencyKey = fmt.Sprintf("chaos-journal-%d-%d", c.cfg.Seed, st.Index)
	res, err := coord.Do(ctx, jreq)
	faultinject.Reset()
	ok := err == nil && clusterEstOf(res) == want
	c.check(InvClusterResume, ok,
		"step %d: estimate under a torn journal write diverged (err=%v, got=%+v, want=%+v)",
		st.Index, err, estOrNil(res), want)
	c.check(InvClusterResume, coord.Statz().JournalErrors >= 1,
		"step %d: the armed journal-crash fault tore no write", st.Index)

	// A deliberately torn record (a crash mid-write the fault did not
	// repair) must read as absent: Recover skips it without error.
	if err := os.WriteFile(filepath.Join(jdir, "fanout-deadbeefdeadbeef.json"), []byte(`{"key":"torn`), 0o644); err == nil {
		n, rerr := coord.Recover(ctx)
		c.check(InvClusterResume, rerr == nil && n == 0,
			"step %d: Recover over a completed journal with a torn record = (%d, %v), want (0, nil)",
			st.Index, n, rerr)
	}
}

// clusterCrashRecoveryScenario is the coordinator-loss drill: a keyed
// journaled fan-out is abandoned mid-run (the coordinator "crashes" —
// its context is canceled and it is closed), a successor coordinator on
// the same journal dir Recovers the run to completion, and a client
// re-POST of the same key is served the bit-identical journaled result.
// Work conservation: recovery re-attaches to the replicas' durable
// sub-jobs by their journaled keys — exactly one sub-job per lane range
// is ever submitted.
func (c *campaign) clusterCrashRecoveryScenario(ctx context.Context, st *Step, db *unreliable.DB, req server.Request, want clusterEstimate) {
	base := filepath.Join(c.cfg.Dir, fmt.Sprintf("step-%03d", st.Index))
	jdir := filepath.Join(base, "cluster-crash-journal")
	mutate := func(cfg *cluster.Config) { cfg.JournalDir = jdir }
	f, coordA, err := c.shipFleet(db, filepath.Join(base, "cluster-crash-ckpt"), mutate)
	if err != nil {
		c.check(InvClusterResume, false, "step %d: building crash-scenario fleet: %v", st.Index, err)
		return
	}
	defer f.close()

	faultinject.Reset()
	kreq := req
	kreq.IdempotencyKey = fmt.Sprintf("chaos-crash-%d-%d", c.cfg.Seed, st.Index)
	dctx, cancel := context.WithCancel(ctx)
	type out struct {
		res *server.Response
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, doErr := coordA.Do(dctx, kreq)
		done <- out{res, doErr}
	}()
	if !waitShipped(coordA, 2, 10*time.Second) {
		cancel()
		<-done
		coordA.Close()
		c.check(InvClusterResume, false, "step %d: crash drill: nothing shipped before the run finished", st.Index)
		return
	}
	cancel() // the crash: the merge never completes, the journal record stays running
	<-done
	coordA.Close()

	coord, err := c.clusterCoord(f.urls, func(cfg *cluster.Config) {
		cfg.UseJobs = true
		cfg.MaxAttempts = 8
		cfg.JobPoll = time.Millisecond
		cfg.CheckpointPoll = time.Millisecond
		mutate(cfg)
	})
	if err != nil {
		c.check(InvClusterResume, false, "step %d: building successor coordinator: %v", st.Index, err)
		return
	}
	defer coord.Close()
	n, err := coord.Recover(ctx)
	c.check(InvClusterResume, err == nil && n == 1,
		"step %d: successor Recover = (%d, %v), want (1, nil)", st.Index, n, err)
	res, err := coord.Do(ctx, kreq)
	ok := err == nil && clusterEstOf(res) == want
	c.check(InvClusterResume, ok,
		"step %d: recovered estimate diverged from single-node (err=%v, got=%+v, want=%+v)",
		st.Index, err, estOrNil(res), want)
	var submitted int64
	for _, s := range f.servers {
		if js := s.Statz().Jobs; js != nil {
			submitted += js.Submitted
		}
	}
	c.check(InvClusterWork, submitted == 2,
		"step %d: crash recovery submitted %d sub-jobs across the fleet, want exactly 2 (one per range, recovery re-attaches)",
		st.Index, submitted)
}

// hasTrailEvent reports whether the response's cluster trail carries
// at least one step with the named event.
func hasTrailEvent(res *server.Response, event string) bool {
	if res == nil {
		return false
	}
	for _, s := range res.ClusterTrail {
		if s.Event == event {
			return true
		}
	}
	return false
}

// clusterCorruptScenario is the trust-but-verify drill, in two parts.
// Part A arms the planned compute-corrupt fault — one lane aggregate
// somewhere in the fleet is silently perturbed after the computation,
// so the attestation digest still matches and only a cross-replica
// audit can notice — under a full audit (AuditFrac 1): the mismatch
// must be caught, tie-broken on the third replica, and the liar's
// ranges repaired, with the served estimate bit-identical to the
// single-node reference. Part B rebuilds the fleet with replica 0
// configured as a persistent liar (Config.ComputeCorrupt): the
// coordinator must quarantine it, keep serving the bit-identical
// estimate from the honest survivors, and record the audit evidence in
// both the cluster trail and the fan-out journal.
func (c *campaign) clusterCorruptScenario(ctx context.Context, st *Step, db *unreliable.DB, req server.Request, want clusterEstimate, pf PlannedFault) {
	// Part A: a one-shot injected corruption.
	f := startChaosFleet(db, 3, nil)
	coord, err := c.clusterCoord(f.urls, func(cfg *cluster.Config) { cfg.AuditFrac = 1 })
	if err != nil {
		c.check(InvClusterAudit, false, "step %d: building audit coordinator: %v", st.Index, err)
		f.close()
		return
	}
	faultinject.Reset()
	c.armFaults([]PlannedFault{pf})
	res, err := coord.Do(ctx, req)
	faultinject.Reset()
	var corrupted int64
	for _, s := range f.servers {
		corrupted += s.Statz().ComputeCorrupted
	}
	stz := coord.Statz()
	coord.Close()
	f.close()
	c.check(InvClusterAudit, corrupted >= 1,
		"step %d: the armed compute-corrupt fault perturbed no lane-range result", st.Index)
	ok := err == nil && clusterEstOf(res) == want
	c.check(InvClusterAudit, ok,
		"step %d: estimate with a corrupted range under full audit diverged (err=%v, got=%+v, want=%+v)",
		st.Index, err, estOrNil(res), want)
	if ok && corrupted >= 1 {
		c.check(InvClusterAudit, stz.AuditMismatches >= 1 && hasTrailEvent(res, "audit-liar"),
			"step %d: a corrupted range survived a full audit undetected (mismatches=%d)",
			st.Index, stz.AuditMismatches)
	}

	// Part B: replica 0 lies on every lane range it computes.
	jdir := filepath.Join(c.cfg.Dir, fmt.Sprintf("step-%03d", st.Index), "cluster-audit-journal")
	f = startChaosFleet(db, 3, func(i int) server.Config {
		return server.Config{
			Workers: 2, DefaultTimeout: 60 * time.Second, MaxTimeout: 120 * time.Second,
			ComputeCorrupt: i == 0,
		}
	})
	defer f.close()
	coord, err = c.clusterCoord(f.urls, func(cfg *cluster.Config) {
		cfg.AuditFrac = 1
		cfg.JournalDir = jdir
		// No readmission inside the drill: the liar must still read
		// quarantined when the assertions run.
		cfg.QuarantineCooldown = time.Hour
	})
	if err != nil {
		c.check(InvClusterQuarantine, false, "step %d: building quarantine coordinator: %v", st.Index, err)
		return
	}
	defer coord.Close()
	kreq := req
	kreq.IdempotencyKey = fmt.Sprintf("chaos-audit-%d-%d", c.cfg.Seed, st.Index)
	res, err = coord.Do(ctx, kreq)
	ok = err == nil && clusterEstOf(res) == want
	c.check(InvClusterQuarantine, ok,
		"step %d: estimate with a persistently lying replica diverged (err=%v, got=%+v, want=%+v)",
		st.Index, err, estOrNil(res), want)
	if !ok {
		return
	}
	stz = coord.Statz()
	var liarHealth cluster.HealthState
	for _, r := range stz.Replicas {
		if r.URL == f.urls[0] {
			liarHealth = r.Health
		}
	}
	c.check(InvClusterQuarantine, liarHealth == cluster.HealthQuarantined && stz.Quarantines >= 1,
		"step %d: lying replica health = %q (quarantines=%d), want quarantined",
		st.Index, liarHealth, stz.Quarantines)
	c.check(InvClusterQuarantine, hasTrailEvent(res, "audit-liar") && hasTrailEvent(res, "quarantine"),
		"step %d: cluster trail carries no audit-liar/quarantine evidence", st.Index)
	rec := cluster.LoadFanout(jdir, kreq.IdempotencyKey)
	liarAudits := 0
	if rec != nil {
		for _, a := range rec.Audits {
			if a.Verdict == cluster.AuditLiar && a.Liar == f.urls[0] {
				liarAudits++
			}
		}
	}
	c.check(InvClusterQuarantine, liarAudits >= 1,
		"step %d: fan-out journal carries no liar verdict against the corrupt replica (journaled=%v)",
		st.Index, rec != nil)
}

// clusterAuditFaultScenario arms the planned audit fault on a fully
// audited honest fleet: the audit machinery itself failing must cost at
// most coverage — the affected audit falls to the next candidate or is
// skipped outright, the estimate is untouched, and nobody is
// quarantined over an infrastructure failure.
func (c *campaign) clusterAuditFaultScenario(ctx context.Context, st *Step, db *unreliable.DB, req server.Request, want clusterEstimate, pf PlannedFault) {
	f := startChaosFleet(db, 3, nil)
	defer f.close()
	coord, err := c.clusterCoord(f.urls, func(cfg *cluster.Config) { cfg.AuditFrac = 1 })
	if err != nil {
		c.check(InvClusterAudit, false, "step %d: building audit-fault coordinator: %v", st.Index, err)
		return
	}
	defer coord.Close()
	faultinject.Reset()
	c.armFaults([]PlannedFault{pf})
	res, err := coord.Do(ctx, req)
	faultinject.Reset()
	stz := coord.Statz()
	ok := err == nil && clusterEstOf(res) == want
	c.check(InvClusterAudit, ok,
		"step %d: estimate under an audit fault diverged (err=%v, got=%+v, want=%+v)",
		st.Index, err, estOrNil(res), want)
	c.check(InvClusterAudit, hasTrailEvent(res, "audit-skipped"),
		"step %d: the armed audit fault skipped no audit candidate", st.Index)
	c.check(InvClusterAudit, stz.AuditMismatches == 0 && stz.Quarantines == 0,
		"step %d: an honest fleet under an audit fault read mismatches=%d quarantines=%d, want none",
		st.Index, stz.AuditMismatches, stz.Quarantines)
}

// estOrNil formats a response's estimate subset for failure messages.
func estOrNil(res *server.Response) any {
	if res == nil {
		return "<nil>"
	}
	return clusterEstOf(res)
}
