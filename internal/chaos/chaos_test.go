package chaos

import (
	"reflect"
	"testing"

	"qrel/internal/faultinject"
)

// TestPlanDeterministic: the schedule is a pure function of the
// config.
func TestPlanDeterministic(t *testing.T) {
	cfg := Config{Seed: 17, Steps: 6, Dir: t.TempDir()}
	a, err := planCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := planCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two plans from the same config differ")
	}
	if a.Hash() != b.Hash() {
		t.Fatalf("schedule hashes differ: %s vs %s", a.Hash(), b.Hash())
	}
	c, err := planCampaign(Config{Seed: 18, Steps: 6, Dir: cfg.Dir})
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() == c.Hash() {
		t.Fatal("different seeds produced the same schedule hash")
	}
}

// TestPlanCoversEverySite: with no site filter, every registered site
// appears in the schedule.
func TestPlanCoversEverySite(t *testing.T) {
	p, err := planCampaign(Config{Seed: 5, Steps: 4})
	if err != nil {
		t.Fatal(err)
	}
	scheduled := map[string]bool{}
	for _, site := range scheduledSites(p.Steps) {
		scheduled[site] = true
	}
	for _, site := range faultinject.Sites() {
		if !scheduled[site] {
			t.Errorf("site %s missing from the schedule", site)
		}
	}
}

// TestPlanRejectsUnknownSite: a typo'd site filter is a setup error,
// not a silently empty campaign.
func TestPlanRejectsUnknownSite(t *testing.T) {
	if _, err := planCampaign(Config{Seed: 1, Sites: []string{"engine/no-such"}}); err == nil {
		t.Fatal("unknown site accepted")
	}
}

// TestPlanSeparatesAbortingCkptFaults: crash-window and rename faults
// abort Store.Save before later protocol sites are reached, so the
// planner must never co-locate them in one step.
func TestPlanSeparatesAbortingCkptFaults(t *testing.T) {
	p, err := planCampaign(Config{Seed: 3, Steps: 2, Sites: []string{
		faultinject.SiteCkptCrash, faultinject.SiteCkptRename,
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range p.Steps {
		crash, rename := hasFault(st.CkptFaults, faultinject.SiteCkptCrash), hasFault(st.CkptFaults, faultinject.SiteCkptRename)
		if crash && rename {
			t.Fatalf("step %d schedules both aborting ckpt faults", st.Index)
		}
	}
	if _, err := planCampaign(Config{Seed: 3, Steps: 1, Sites: []string{
		faultinject.SiteCkptCrash, faultinject.SiteCkptRename,
	}}); err == nil {
		t.Fatal("1-step plan with both aborting ckpt faults accepted")
	}
}

// TestCampaignAllSitesPasses is the big one: a full fixed-seed
// campaign over every site must hold every invariant, and every
// scheduled site must actually have fired.
func TestCampaignAllSitesPasses(t *testing.T) {
	rep, err := Run(Config{Seed: 1, Steps: 6, Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("campaign failed:\n%s", failureSummary(rep))
	}
	if rep.StepsRun != 6 {
		t.Fatalf("StepsRun = %d, want 6", rep.StepsRun)
	}
	for _, site := range rep.Scheduled {
		if rep.Sites[site].Fires == 0 {
			t.Errorf("scheduled site %s never fired", site)
		}
	}
	for _, name := range invariantNames() {
		if rep.Invariants[name] == nil {
			t.Errorf("invariant %s missing from the report", name)
		}
	}
	// The core oracles must actually have been exercised.
	for _, inv := range []string{InvExactAgree, InvEpsBound, InvTypedErrors, InvResume, InvBreaker, InvCluster, InvCoverage} {
		if rep.Invariants[inv].Checks == 0 {
			t.Errorf("invariant %s was never checked", inv)
		}
	}
}

// TestCampaignReproducible: same seed, same schedule hash, same
// per-invariant verdicts — the reproducibility contract.
func TestCampaignReproducible(t *testing.T) {
	cfg := Config{Seed: 42, Steps: 3}
	cfg.Dir = t.TempDir()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dir = t.TempDir()
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.ScheduleHash != b.ScheduleHash {
		t.Fatalf("schedule hashes differ: %s vs %s", a.ScheduleHash, b.ScheduleHash)
	}
	if !reflect.DeepEqual(a.Verdicts, b.Verdicts) {
		t.Fatalf("verdicts differ:\nA: %v\nB: %v", a.Verdicts, b.Verdicts)
	}
	if !a.Passed || !b.Passed {
		t.Fatalf("campaigns failed:\nA:\n%s\nB:\n%s", failureSummary(a), failureSummary(b))
	}
}

// TestEpsSkewDetected: shrinking the allowed eps to 1% of what the
// engines honestly report must make the campaign fail — proof the
// harness can detect accuracy violations at all.
func TestEpsSkewDetected(t *testing.T) {
	rep, err := Run(Config{Seed: 7, Steps: 2, EpsSkew: 0.01, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed {
		t.Fatal("campaign with a 100x-tightened oracle still passed; the harness cannot detect violations")
	}
	if rep.Invariants[InvEpsBound].Failures == 0 {
		t.Fatal("eps-bound recorded no failures under a skewed oracle")
	}
}

// TestCampaignStoreSites: a campaign restricted to the paged-store
// fault sites must exercise both storage invariants — crash recovery
// to a pre-or-post image, and typed corruption detection — with every
// scheduled site firing.
func TestCampaignStoreSites(t *testing.T) {
	rep, err := Run(Config{Seed: 11, Steps: 2, Dir: t.TempDir(), Logf: t.Logf, Sites: []string{
		faultinject.SiteStoreJournalTear,
		faultinject.SiteStoreCrash,
		faultinject.SiteStoreShortWrite,
		faultinject.SiteStoreBitFlip,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("store campaign failed:\n%s", failureSummary(rep))
	}
	for _, inv := range []string{InvStoreRecovery, InvStoreCorrupt} {
		if rep.Invariants[inv].Checks == 0 {
			t.Errorf("invariant %s was never checked", inv)
		}
	}
	for _, site := range rep.Scheduled {
		if rep.Sites[site].Fires == 0 {
			t.Errorf("scheduled site %s never fired", site)
		}
	}
}

func failureSummary(rep *Report) string {
	out := ""
	for _, name := range invariantNames() {
		s := rep.Invariants[name]
		if s == nil || s.Failures == 0 {
			continue
		}
		out += name + ":\n"
		for _, e := range s.Examples {
			out += "  " + e + "\n"
		}
	}
	return out
}
