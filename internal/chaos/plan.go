package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"qrel/internal/faultinject"
	"qrel/internal/mc"
)

// FaultKind names one way a planned fault manifests.
type FaultKind string

// Fault kinds the planner schedules.
const (
	// KindErr makes Hit return the injected sentinel error.
	KindErr FaultKind = "err"
	// KindPanic makes Hit panic (engine entry sites only — worker
	// goroutines and the serving layer have no recovery barrier there).
	KindPanic FaultKind = "panic"
	// KindDelay makes Hit sleep briefly.
	KindDelay FaultKind = "delay"
	// KindProbErr is KindErr behind a seeded probabilistic draw,
	// scheduled only at high-frequency sites so coverage stays
	// deterministic.
	KindProbErr FaultKind = "prob-err"
)

// PlannedFault is one scheduled fault activation.
type PlannedFault struct {
	Site string    `json:"site"`
	Kind FaultKind `json:"kind"`
	// Prob/Seed parameterize KindProbErr (see faultinject.Fault).
	Prob float64 `json:"prob,omitempty"`
	Seed int64   `json:"seed,omitempty"`
	// Times bounds fires (0 = until disarmed).
	Times int `json:"times,omitempty"`
	// DelayMS is the KindDelay sleep.
	DelayMS int `json:"delay_ms,omitempty"`
}

// Step is one planned campaign step: a generated instance, the faults
// armed over it, and which heavyweight phases (checkpoint resume,
// service/jobs) run.
type Step struct {
	Index int `json:"index"`
	// N and Uncertain parameterize workload.RandomUDB; Uncertain stays
	// well under the world-enumeration cap so the exact reference is
	// always available.
	N         int    `json:"n"`
	Uncertain int    `json:"uncertain"`
	Query     string `json:"query"`
	// Workers only schedules the sampling engines' lanes (0: one
	// goroutine); above 1 it also selects the parallel world-enum path.
	Workers int `json:"workers,omitempty"`
	// Seed drives the step's instance generation and engine runs.
	Seed int64 `json:"seed"`
	// EngineFaults are armed during the fault phase (engine, eval and
	// lane sites); CkptFaults during the resume phase (disk sites);
	// ServerFaults during the service fault sub-phase; ClusterFaults
	// select the multi-node phase's fault scenarios (partition, lost
	// send / slow replica, reassignment failure); StoreFaults drive the
	// paged-store crash/corruption phase, one fault per scenario.
	EngineFaults  []PlannedFault `json:"engine_faults,omitempty"`
	CkptFaults    []PlannedFault `json:"ckpt_faults,omitempty"`
	ServerFaults  []PlannedFault `json:"server_faults,omitempty"`
	ClusterFaults []PlannedFault `json:"cluster_faults,omitempty"`
	StoreFaults   []PlannedFault `json:"store_faults,omitempty"`
	// Resume runs the interrupt/resume bit-identity phase; Service the
	// in-process qreld phase; Kill picks the crash-window journal
	// rewind variant over the graceful mid-flight drain; Cluster runs
	// the multi-node coordinator phase; Store the paged-store phase.
	Resume  bool `json:"resume,omitempty"`
	Service bool `json:"service,omitempty"`
	Kill    bool `json:"kill,omitempty"`
	Cluster bool `json:"cluster,omitempty"`
	Store   bool `json:"store,omitempty"`
}

// Plan is a fully materialized campaign schedule — a pure function of
// Config, computed before anything runs.
type Plan struct {
	Seed  int64  `json:"seed"`
	Steps []Step `json:"steps"`
}

// Hash fingerprints the schedule. Two campaigns with the same Config
// produce the same hash; the reproducibility tests compare it.
func (p *Plan) Hash() string {
	b, err := json.Marshal(p)
	if err != nil {
		return "unhashable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// stepQueries is the query mix over the workload graph vocabulary
// (E/2, S/1). All are quantifier-free so the exact reference always
// applies; they differ in class so different dispatch rungs engage.
var stepQueries = []string{
	"E(x,y) & S(x)",
	"E(x,x) | S(x)",
	"S(x) & S(y)",
	"E(x,y)",
}

// siteClass buckets a site by which phase can reach it and which fault
// kinds are safe there.
func siteClass(site string) string {
	switch {
	case site == faultinject.SiteLaneWorker:
		return "lane"
	case strings.HasPrefix(site, "engine/"):
		return "engine"
	case strings.HasPrefix(site, "eval/"):
		return "eval"
	case strings.HasPrefix(site, "vm/"):
		return "vm"
	case strings.HasPrefix(site, "server/"):
		return "server"
	case strings.HasPrefix(site, "ckpt/"):
		return "ckpt"
	case strings.HasPrefix(site, "cluster/"):
		return "cluster"
	case strings.HasPrefix(site, "store/"):
		return "store"
	}
	return ""
}

// abortingCkptSite reports whether a firing fault at the site aborts
// Store.Save before later sites in the commit protocol are reached.
// Two such sites in one step would shadow each other, so the planner
// keeps them in separate steps.
func abortingCkptSite(site string) bool {
	return site == faultinject.SiteCkptCrash || site == faultinject.SiteCkptRename
}

// probFriendlySites are hit many times per engine run, so a seeded
// probabilistic fault there still fires deterministically within a
// step. Engine entry sites are hit once per run and get deterministic
// kinds only.
var probFriendlySites = []string{
	faultinject.SiteAnswerSet,
	faultinject.SiteWorldWorker,
	faultinject.SiteLaneWorker,
}

// selectSites validates and sorts the configured site subset,
// defaulting to every registered site.
func selectSites(sites []string) ([]string, error) {
	if len(sites) == 0 {
		return faultinject.Sites(), nil
	}
	out := make([]string, 0, len(sites))
	seen := map[string]bool{}
	for _, s := range sites {
		if !faultinject.KnownSite(s) {
			return nil, fmt.Errorf("chaos: unknown fault site %q (see faultinject.Sites())", s)
		}
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out, nil
}

// planCampaign materializes the full fault schedule from cfg. It is
// deterministic: every draw comes from one xoshiro stream seeded by
// cfg.Seed, consumed in a fixed order.
func planCampaign(cfg Config) (*Plan, error) {
	steps := cfg.Steps
	if steps <= 0 {
		steps = DefaultSteps
	}
	sites, err := selectSites(cfg.Sites)
	if err != nil {
		return nil, err
	}
	rng := mc.NewRand(cfg.Seed)
	p := &Plan{Seed: cfg.Seed, Steps: make([]Step, steps)}
	for i := range p.Steps {
		st := &p.Steps[i]
		st.Index = i
		st.N = 3 + rng.Intn(2)
		st.Uncertain = 4 + rng.Intn(4)
		st.Query = stepQueries[rng.Intn(len(stepQueries))]
		st.Seed = int64(rng.Uint64() >> 1)
		if rng.Intn(2) == 0 {
			st.Workers = 2
		}
		st.Resume = rng.Intn(3) == 0
		st.Service = rng.Intn(3) == 0
		st.Kill = rng.Intn(2) == 0
	}

	// Every selected site gets one deterministic fault, spread
	// round-robin over the steps. Assignments force the capabilities
	// the site needs: parallel workers for the lane/world-worker paths,
	// a resume phase for disk sites, a service phase for serving sites.
	aborting := make([]bool, steps)
	for idx, site := range sites {
		st := &p.Steps[idx%steps]
		switch siteClass(site) {
		case "engine":
			kind := [...]FaultKind{KindErr, KindErr, KindPanic, KindDelay}[rng.Intn(4)]
			pf := PlannedFault{Site: site, Kind: kind}
			if kind == KindDelay {
				pf.DelayMS = 1
			}
			st.EngineFaults = append(st.EngineFaults, pf)
		case "eval":
			st.EngineFaults = append(st.EngineFaults, PlannedFault{Site: site, Kind: KindErr})
			if site == faultinject.SiteWorldWorker {
				st.Workers = 2
			}
		case "vm":
			// A compile fault is absorbed, not surfaced: every sampling
			// engine falls back to the interpreter mid-campaign and its
			// estimate must still satisfy the eps-bound oracle.
			st.EngineFaults = append(st.EngineFaults, PlannedFault{Site: site, Kind: KindErr})
		case "lane":
			st.EngineFaults = append(st.EngineFaults, PlannedFault{Site: site, Kind: KindErr})
			st.Workers = 2
		case "server":
			st.Service = true
			pf := PlannedFault{Site: site, Kind: KindErr, Times: 2}
			if rng.Intn(2) == 0 {
				pf = PlannedFault{Site: site, Kind: KindDelay, Times: 2, DelayMS: 2}
			}
			st.ServerFaults = append(st.ServerFaults, pf)
		case "cluster":
			st.Cluster = true
			pf := PlannedFault{Site: site, Kind: KindErr, Times: 1}
			switch site {
			case faultinject.SiteClusterProbe:
				// The partition scenario needs the probe to keep failing
				// until the phase heals it, so no Times bound.
				pf = PlannedFault{Site: site, Kind: KindErr}
			case faultinject.SiteClusterSend:
				if rng.Intn(2) == 0 {
					// A slow replica instead of a lost send: the phase
					// turns hedging on and the delay must trip it.
					pf = PlannedFault{Site: site, Kind: KindDelay, Times: 1, DelayMS: 40}
				}
			case faultinject.SiteClusterCkptShip:
				// The ship scenario tampers every frame accepted while the
				// fault is armed, so the one that ends up planted on a
				// survivor is guaranteed to be replica-rejected; no Times
				// bound.
				pf = PlannedFault{Site: site, Kind: KindErr}
			}
			st.ClusterFaults = append(st.ClusterFaults, pf)
		case "store":
			// The store phase arms each fault by itself against a private
			// store file, so several scenarios can share one step. Write-
			// path faults fire once per batch; the read-path bit flip
			// stays armed so every page fetched through the pool is hit.
			st.Store = true
			pf := PlannedFault{Site: site, Kind: KindErr, Times: 1}
			if site == faultinject.SiteStoreBitFlip {
				pf.Times = 0
			}
			st.StoreFaults = append(st.StoreFaults, pf)
		case "ckpt":
			target := st
			if abortingCkptSite(site) {
				// Find a step without another save-aborting fault.
				j := idx
				for aborting[j%steps] {
					j++
					if j-idx >= steps {
						return nil, fmt.Errorf("chaos: need at least 2 steps to schedule both %s and %s",
							faultinject.SiteCkptCrash, faultinject.SiteCkptRename)
					}
				}
				target = &p.Steps[j%steps]
				aborting[j%steps] = true
			}
			target.Resume = true
			target.CkptFaults = append(target.CkptFaults, PlannedFault{Site: site, Kind: KindErr, Times: 1})
		}
	}

	// Extra seeded probabilistic faults at high-frequency sites, and a
	// filler fault for steps the round-robin left empty.
	selected := map[string]bool{}
	for _, s := range sites {
		selected[s] = true
	}
	var probSites []string
	for _, s := range probFriendlySites {
		if selected[s] {
			probSites = append(probSites, s)
		}
	}
	var engineSites []string
	for _, s := range sites {
		if siteClass(s) == "engine" {
			engineSites = append(engineSites, s)
		}
	}
	for i := range p.Steps {
		st := &p.Steps[i]
		if len(st.EngineFaults)+len(st.CkptFaults)+len(st.ServerFaults) == 0 && len(engineSites) > 0 {
			st.EngineFaults = append(st.EngineFaults,
				PlannedFault{Site: engineSites[rng.Intn(len(engineSites))], Kind: KindErr})
		}
		if len(probSites) == 0 || rng.Intn(2) == 0 {
			continue
		}
		site := probSites[rng.Intn(len(probSites))]
		if hasFault(st.EngineFaults, site) {
			continue
		}
		st.EngineFaults = append(st.EngineFaults, PlannedFault{
			Site: site, Kind: KindProbErr, Prob: 0.5, Seed: int64(rng.Uint64() >> 1),
		})
		if site != faultinject.SiteAnswerSet {
			st.Workers = 2
		}
	}
	return p, nil
}

func hasFault(fs []PlannedFault, site string) bool {
	for _, f := range fs {
		if f.Site == site {
			return true
		}
	}
	return false
}
