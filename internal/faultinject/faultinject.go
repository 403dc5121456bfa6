// Package faultinject provides a process-wide fault injection registry
// for the reliability engines. Production code calls Hit at well-known
// sites (engine entry points and the shared query-evaluation path);
// with no faults armed and counting off, Hit is two atomic loads and
// returns nil. Tests arm faults — evaluation failures, delays, holds,
// forced panics, and seeded probabilistic variants of each — to prove that
// every rung of the dispatcher's degradation ladder actually fires and
// that the engine boundary converts panics into the typed error
// taxonomy. The chaos campaign (internal/chaos) additionally turns on
// per-site hit/fire counting so it can fail a run on sites its
// workload never reached.
//
// The registry is safe for concurrent use (the parallel world-enum
// engine hits it from many goroutines under -race).
package faultinject

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical injection sites. Engines pass these to Hit; tests pass them
// to Enable. Keeping them here (rather than as loose strings at call
// sites) makes the set of injectable points discoverable.
const (
	SiteQFree       = "engine/qfree"
	SiteWorldEnum   = "engine/world-enum"
	SiteSafePlan    = "engine/safe-plan"
	SiteLineageBDD  = "engine/lineage-bdd"
	SiteLineageKL   = "engine/lineage-kl"
	SiteMonteCarlo  = "engine/monte-carlo"
	SiteMCDirect    = "engine/monte-carlo-direct"
	SiteMCRare      = "engine/monte-carlo-rare"
	SiteAnswerSet   = "eval/answer-set"
	SiteWorldWorker = "eval/world-worker"
	// SiteLaneWorker fires once per lane claimed by a lane-pool worker
	// (mc.Run) before the lane starts sampling; the race tests arm
	// it to prove first-error cancellation of sibling lanes.
	SiteLaneWorker = "mc/lane-worker"
	// Serving-layer sites (internal/server): SiteServerAdmit fires in
	// the admission path before a request is queued (delays there hold
	// the HTTP goroutine, not a worker); SiteServerHandle fires inside a
	// pool worker just before the reliability computation (delays there
	// keep workers busy, which is how the shedding tests saturate the
	// queue deterministically).
	SiteServerAdmit  = "server/admit"
	SiteServerHandle = "server/handle"
	// Disk-fault sites (internal/checkpoint). Each simulates one failure
	// window of the write-temp + fsync + rename protocol; arm with any
	// non-nil Err (the error value doubles as the trigger).
	//
	//   SiteCkptShortWrite — only half the snapshot bytes reach the disk
	//   but the rename still happens: a torn snapshot is committed, which
	//   the CRC check must reject on load.
	//   SiteCkptBitFlip — one payload byte is flipped after the write:
	//   silent media corruption, again caught only by the CRC.
	//   SiteCkptRename — the rename fails: Save errors, the previous
	//   snapshot stays the newest good one.
	//   SiteCkptCrash — the process "dies" between the temp write and the
	//   rename: Save errors, an orphaned .tmp file is left behind and
	//   must be ignored (and cleaned up) by later loads and saves.
	SiteCkptShortWrite = "ckpt/short-write"
	SiteCkptBitFlip    = "ckpt/bit-flip"
	SiteCkptRename     = "ckpt/rename"
	SiteCkptCrash      = "ckpt/crash-window"
	// Cluster-coordinator sites (internal/cluster). SiteClusterProbe
	// fires inside every replica health probe (an armed error reads as a
	// failed probe — the partition simulation); SiteClusterSend fires
	// before every sub-request a coordinator sends to a replica (an armed
	// error reads as a transport failure, a delay as a slow replica that
	// trips hedging); SiteClusterReassign fires when a lane range is
	// reassigned from a failed replica to a survivor — the kill path's
	// coverage proof.
	SiteClusterProbe    = "cluster/probe"
	SiteClusterSend     = "cluster/send"
	SiteClusterReassign = "cluster/reassign"
	// SiteClusterCkptShip fires when a coordinator accepts a shipped
	// checkpoint frame (an armed fault corrupts the frame in flight, so
	// validation must reject it and the range must restart clean);
	// SiteClusterJournalCrash fires inside every fan-out journal write
	// (an armed fault simulates a crash mid-write: a torn file reaches
	// the journal path and the write reports failure).
	SiteClusterCkptShip     = "cluster/ckpt-ship"
	SiteClusterJournalCrash = "cluster/journal-crash"
	// SiteClusterComputeCorrupt fires on a replica's pool worker after a
	// lane-range computation succeeds; an armed fault silently perturbs
	// one lane's Sum aggregate before the result (and its attestation
	// digest) is rendered — the one corruption class attestation cannot
	// catch, detectable only by a coordinator audit re-executing the
	// range on a different replica. SiteClusterAudit fires before each
	// audit re-execution the coordinator dispatches; an armed error makes
	// that audit fall to the next candidate replica (or be skipped),
	// proving audit scheduling degrades without poisoning health state.
	SiteClusterComputeCorrupt = "cluster/compute-corrupt"
	SiteClusterAudit          = "cluster/audit"
	// SiteVMCompile fires inside vm.Compile before a formula is lowered
	// to bytecode; an armed error makes compilation fail, forcing the
	// engine onto the interpreted evaluator mid-campaign (recorded in
	// the fallback trail). Because the compiled and interpreted paths
	// consume the identical RNG stream, every bit-identity invariant
	// must hold even when replicas disagree on eval mode.
	SiteVMCompile = "vm/compile"
	// Paged-store sites (internal/store). Each simulates one failure
	// window of the journal-then-apply commit protocol or of the page
	// read path:
	//
	//   SiteStoreJournalTear — only half the journal record reaches the
	//   disk before the "crash": recovery must discard the torn tail
	//   and roll the commit back cleanly.
	//   SiteStoreCrash — the process dies after the journal fsync but
	//   before any page is applied: recovery must replay the record and
	//   complete the commit.
	//   SiteStoreShortWrite — a heap page write-back is torn after the
	//   journal is durable: recovery must repair the page from the
	//   journal image.
	//   SiteStoreBitFlip — one bit of a page flips on the read path
	//   (silent media corruption): the per-page CRC must reject it as a
	//   typed ErrCorruptPage, never serve the tuples.
	SiteStoreJournalTear = "store/journal-tear"
	SiteStoreCrash       = "store/crash-window"
	SiteStoreShortWrite  = "store/short-write"
	SiteStoreBitFlip     = "store/bit-flip"
)

// allSites is the canonical registry behind Sites. Every Site* constant
// above MUST appear here; TestSitesCoversEveryConstant parses this file
// and fails on any omission, so a new site cannot be added without
// becoming schedulable by the chaos campaign.
var allSites = []string{
	SiteQFree,
	SiteWorldEnum,
	SiteSafePlan,
	SiteLineageBDD,
	SiteLineageKL,
	SiteMonteCarlo,
	SiteMCDirect,
	SiteMCRare,
	SiteAnswerSet,
	SiteWorldWorker,
	SiteLaneWorker,
	SiteServerAdmit,
	SiteServerHandle,
	SiteCkptShortWrite,
	SiteCkptBitFlip,
	SiteCkptRename,
	SiteCkptCrash,
	SiteClusterProbe,
	SiteClusterSend,
	SiteClusterReassign,
	SiteClusterCkptShip,
	SiteClusterJournalCrash,
	SiteClusterComputeCorrupt,
	SiteClusterAudit,
	SiteVMCompile,
	SiteStoreJournalTear,
	SiteStoreCrash,
	SiteStoreShortWrite,
	SiteStoreBitFlip,
}

// Sites returns every registered injection site, sorted. The chaos
// campaign plans its fault schedule over this list; a site missing from
// it can never be scheduled, which is why the registry is test-enforced
// against the Site* constants.
func Sites() []string {
	out := make([]string, len(allSites))
	copy(out, allSites)
	sort.Strings(out)
	return out
}

// KnownSite reports whether site names a registered injection site.
func KnownSite(site string) bool {
	for _, s := range allSites {
		if s == site {
			return true
		}
	}
	return false
}

// Fault describes one armed fault. The zero value is a no-op; set at
// least one of Err, Delay, Hold, or Panic.
type Fault struct {
	// Err is returned by Hit as an injected evaluation failure.
	Err error
	// Delay is slept before Hit returns (combinable with Err/Panic), for
	// deadline and cancellation tests.
	Delay time.Duration
	// Hold, when non-nil, parks a HitContext caller after the delay
	// until its context ends, and HitContext then returns the context's
	// error: the work is provably in flight when a deadline passes, at
	// any engine speed. On parking the caller sends on Hold without
	// blocking, so a test that gives the channel a buffer learns the
	// work is parked without sleeping. Hit, which has no context to wait
	// on, ignores the hold.
	Hold chan<- struct{}
	// Panic, when non-empty, makes Hit panic with this message after the
	// delay — exercising the engine-boundary recovery.
	Panic string
	// Times bounds how often the fault fires; 0 means every firing Hit
	// until Reset. A fault with Times = 1 fires exactly once.
	// With Prob set, only Hits whose probability draw succeeds count.
	Times int
	// Prob, when in (0, 1), makes the fault fire probabilistically: each
	// Hit draws from the fault's private deterministic RNG (seeded by
	// Seed) and fires only when the draw lands below Prob. Zero (and
	// anything >= 1) fires on every Hit, as before.
	Prob float64
	// Seed seeds the fault's private RNG for Prob draws. Two faults
	// armed with the same (Prob, Seed) fire on the identical subsequence
	// of Hits — the property the chaos campaign's reproducibility
	// contract rests on.
	Seed int64
}

// armedFault is the registry's record of one Enable call: the fault
// plus its private splitmix64 state for Prob draws.
type armedFault struct {
	Fault
	rng uint64
}

var (
	mu     sync.Mutex
	faults = map[string]*armedFault{}
	// armed counts registered faults so the disarmed fast path costs two
	// atomic loads and no lock.
	armed atomic.Int64
	// counting gates the per-site hit/fire counters; off (the default)
	// keeps the disarmed fast path lock-free.
	counting atomic.Bool
	hits     = map[string]int64{}
	fires    = map[string]int64{}
)

// splitmix64 advances *x and returns the next output — the same
// generator the sampling RNG seeds itself with, small enough to inline
// here (this package must stay import-free below mc).
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Enable arms a fault at a site, replacing any previous fault there.
func Enable(site string, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := faults[site]; !ok {
		armed.Add(1)
	}
	af := &armedFault{Fault: f, rng: uint64(f.Seed)}
	faults[site] = af
}

// Reset removes every armed fault. Tests should defer this. Counters
// and the counting switch are left alone — a chaos campaign resets
// faults between steps while accumulating coverage across them.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	faults = map[string]*armedFault{}
	armed.Store(0)
}

// SetCounting turns per-site hit/fire counting on or off. While on,
// every Hit records its site (armed or not) and every firing fault
// records a fire — the coverage signal the chaos campaign fails on
// when its workload never reaches a scheduled site.
func SetCounting(on bool) {
	counting.Store(on)
}

// ResetCounters zeroes the per-site hit/fire counters.
func ResetCounters() {
	mu.Lock()
	defer mu.Unlock()
	hits = map[string]int64{}
	fires = map[string]int64{}
}

// SiteCount is one site's counter snapshot.
type SiteCount struct {
	// Hits counts Hit calls at the site while counting was on, armed or
	// not — "did the workload reach this code path at all".
	Hits int64 `json:"hits"`
	// Fires counts faults actually applied (error returned, panic
	// raised, or delay slept) at the site while counting was on.
	Fires int64 `json:"fires"`
}

// Counters snapshots the per-site hit/fire counters accumulated since
// the last ResetCounters. Sites never hit are absent.
func Counters() map[string]SiteCount {
	mu.Lock()
	defer mu.Unlock()
	out := make(map[string]SiteCount, len(hits))
	for s, h := range hits {
		out[s] = SiteCount{Hits: h, Fires: fires[s]}
	}
	for s, f := range fires {
		if _, ok := out[s]; !ok {
			out[s] = SiteCount{Fires: f}
		}
	}
	return out
}

// Hit is called by production code at an injection site. With no fault
// armed at the site it returns nil; otherwise it applies the fault's
// delay, panics if requested, and returns the injected error. Armed
// faults with Prob set fire only when their deterministic draw
// succeeds.
func Hit(site string) error {
	if armed.Load() == 0 && !counting.Load() {
		return nil
	}
	return hit(nil, site)
}

// HitContext is Hit at a site whose caller has a context: an armed
// Hold parks it until ctx ends.
func HitContext(ctx context.Context, site string) error {
	if armed.Load() == 0 && !counting.Load() {
		return nil
	}
	return hit(ctx, site)
}

// hit is Hit past the disarmed fast path; a nil ctx ignores holds.
func hit(ctx context.Context, site string) error {
	mu.Lock()
	if counting.Load() {
		hits[site]++
	}
	f, ok := faults[site]
	var fire Fault
	if ok {
		fire = f.Fault
		if f.Prob > 0 && f.Prob < 1 {
			if u := float64(splitmix64(&f.rng)>>11) / (1 << 53); u >= f.Prob {
				ok = false
			}
		}
	}
	if ok {
		if f.Times > 0 {
			f.Times--
			if f.Times == 0 {
				delete(faults, site)
				armed.Add(-1)
			}
		}
		if counting.Load() {
			fires[site]++
		}
	}
	mu.Unlock()
	if !ok {
		return nil
	}
	if fire.Delay > 0 {
		time.Sleep(fire.Delay)
	}
	if fire.Hold != nil && ctx != nil {
		select {
		case fire.Hold <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return ctx.Err()
	}
	if fire.Panic != "" {
		panic(fmt.Sprintf("faultinject: %s: %s", site, fire.Panic))
	}
	return fire.Err
}
