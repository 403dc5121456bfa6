package faultinject

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestSitesCoversEveryConstant parses faultinject.go and checks that
// every Site* constant declared there appears in the allSites registry
// (and vice versa) — the acceptance contract that a new injection site
// cannot be added without becoming schedulable by the chaos campaign.
func TestSitesCoversEveryConstant(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "faultinject.go", nil, 0)
	if err != nil {
		t.Fatalf("parsing faultinject.go: %v", err)
	}
	declared := map[string]string{} // const name -> value
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "Site") || i >= len(vs.Values) {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				declared[name.Name] = strings.Trim(lit.Value, `"`)
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no Site* constants; the parse is broken")
	}
	registered := map[string]bool{}
	for _, s := range Sites() {
		registered[s] = true
	}
	for name, value := range declared {
		if !registered[value] {
			t.Errorf("constant %s = %q is missing from the allSites registry (Sites())", name, value)
		}
	}
	values := map[string]bool{}
	for _, v := range declared {
		values[v] = true
	}
	for _, s := range Sites() {
		if !values[s] {
			t.Errorf("Sites() lists %q, which matches no Site* constant", s)
		}
	}
	if got, want := len(Sites()), len(declared); got != want {
		t.Errorf("Sites() has %d entries, %d Site* constants declared", got, want)
	}
}

func TestKnownSite(t *testing.T) {
	if !KnownSite(SiteQFree) {
		t.Error("KnownSite(SiteQFree) = false")
	}
	if KnownSite("engine/no-such-site") {
		t.Error("KnownSite accepted an unregistered site")
	}
}

// TestProbFaultDeterministic: two faults armed with the same (Prob,
// Seed) fire on the identical subsequence of Hits, and the firing rate
// tracks Prob.
func TestProbFaultDeterministic(t *testing.T) {
	Reset()
	defer Reset()
	want := errors.New("prob")
	const n = 2000
	run := func(seed int64) []bool {
		Enable(SiteQFree, Fault{Err: want, Prob: 0.3, Seed: seed})
		defer Reset()
		out := make([]bool, n)
		for i := range out {
			out[i] = Hit(SiteQFree) != nil
		}
		return out
	}
	a, b := run(7), run(7)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hit %d: run A fired=%v, run B fired=%v (same seed must fire identically)", i, a[i], b[i])
		}
		if a[i] {
			fired++
		}
	}
	if fired < n*2/10 || fired > n*4/10 {
		t.Errorf("Prob=0.3 fired %d/%d times; expected roughly 30%%", fired, n)
	}
	c := run(8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == n {
		t.Error("different seeds produced the identical firing sequence")
	}
}

// TestProbTimesCountsFires: with Prob set, Times bounds fires, not
// hits.
func TestProbTimesCountsFires(t *testing.T) {
	Reset()
	defer Reset()
	want := errors.New("bounded")
	Enable(SiteAnswerSet, Fault{Err: want, Prob: 0.5, Seed: 3, Times: 4})
	fired := 0
	for i := 0; i < 10000 && fired < 5; i++ {
		if Hit(SiteAnswerSet) != nil {
			fired++
		}
	}
	if fired != 4 {
		t.Fatalf("fault fired %d times, want exactly Times=4", fired)
	}
}

// TestCounters: counting records hits at every site (armed or not) and
// fires only where a fault actually applied.
func TestCounters(t *testing.T) {
	Reset()
	defer Reset()
	SetCounting(true)
	defer SetCounting(false)
	ResetCounters()

	for i := 0; i < 5; i++ {
		_ = Hit(SiteMonteCarlo) // unarmed: hits only
	}
	Enable(SiteMCRare, Fault{Err: errors.New("x"), Times: 2})
	for i := 0; i < 3; i++ {
		_ = Hit(SiteMCRare)
	}
	got := Counters()
	if c := got[SiteMonteCarlo]; c.Hits != 5 || c.Fires != 0 {
		t.Errorf("%s counters = %+v, want 5 hits / 0 fires", SiteMonteCarlo, c)
	}
	if c := got[SiteMCRare]; c.Hits != 3 || c.Fires != 2 {
		t.Errorf("%s counters = %+v, want 3 hits / 2 fires", SiteMCRare, c)
	}

	ResetCounters()
	if len(Counters()) != 0 {
		t.Error("ResetCounters left counters behind")
	}
}

// TestCountingOffIsFree: with counting off and nothing armed, Hit
// records nothing.
func TestCountingOffIsFree(t *testing.T) {
	Reset()
	SetCounting(false)
	ResetCounters()
	_ = Hit(SiteWorldEnum)
	if len(Counters()) != 0 {
		t.Error("Hit recorded a counter with counting off")
	}
}
