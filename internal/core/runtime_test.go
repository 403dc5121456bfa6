package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"qrel/internal/faultinject"
	"qrel/internal/logic"
	"qrel/internal/unreliable"
)

// bg is the no-deadline context shared by the non-cancellation tests.
var bg = context.Background()

// secondOrderQuery is expensive to evaluate per world (it quantifies
// over all subsets of the universe), so enumeration over many worlds
// takes long enough for a deadline to fire mid-run.
const secondOrderQuery = "existsrel C/1 . (exists x . C(x)) & (forall x y . C(x) & E(x,y) -> C(y))"

func TestDeadlineBoundsInfeasibleCall(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d := randUDB(rng, 5, 16) // 2^16 worlds, each with a second-order evaluation
	f := logic.MustParse(secondOrderQuery, nil)
	opts := Options{Budget: Budget{Timeout: 100 * time.Millisecond}}
	start := time.Now()
	_, err := Reliability(bg, d, f, opts)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected an error from the deadline-bounded second-order call")
	}
	if !errors.Is(err, ErrCanceled) && !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("error %v matches neither ErrCanceled nor ErrBudgetExceeded", err)
	}
	// The acceptance bound is ~200ms; allow slack for loaded CI machines
	// while still proving the call did not run to completion (which takes
	// many seconds).
	if elapsed > time.Second {
		t.Errorf("deadline-bounded call took %v, want well under 1s", elapsed)
	}
}

func TestCanceledContextPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	rng := rand.New(rand.NewSource(7))
	d := randUDB(rng, 3, 4)
	for _, src := range []string{"S(x)", "exists x y . E(x,y) & E(y,x)", "forall x . exists y . E(x,y)"} {
		_, err := Reliability(ctx, d, logic.MustParse(src, nil), Options{})
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("%q: error %v, want ErrCanceled", src, err)
		}
	}
}

func TestWorldBudgetExceeded(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := randUDB(rng, 3, 5) // 32 worlds
	f := logic.MustParse("exists x . S(x)", nil)
	_, err := ReliabilityWith(bg, EngineWorldEnum, d, f, Options{Budget: Budget{MaxWorlds: 8}})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("error %v, want ErrBudgetExceeded", err)
	}
	// The enumeration-atom budget classifies the same way.
	_, err = ReliabilityWith(bg, EngineWorldEnum, d, f, Options{MaxEnumAtoms: -1})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("atom-budget error %v, want ErrBudgetExceeded", err)
	}
}

func TestSecondOrderOverBudgetIsInfeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := randUDB(rng, 3, 5)
	f := logic.MustParse(secondOrderQuery, nil)
	// World budget excludes enumeration and no other engine covers SO.
	_, err := Reliability(bg, d, f, Options{Budget: Budget{MaxWorlds: 4}})
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("world-budget error %v, want ErrInfeasible", err)
	}
	// Likewise when the uncertain-atom count exceeds the enumeration cap.
	_, err = Reliability(bg, d, f, Options{MaxEnumAtoms: -1})
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("atom-cap error %v, want ErrInfeasible", err)
	}
}

func TestPanicRecoveredAsEngineFailed(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Enable(faultinject.SiteQFree, faultinject.Fault{Panic: "injected crash"})
	rng := rand.New(rand.NewSource(10))
	d := randUDB(rng, 3, 3)
	_, err := ReliabilityWith(bg, EngineQFree, d, logic.MustParse("S(x)", nil), Options{})
	if !errors.Is(err, ErrEngineFailed) {
		t.Fatalf("error %v, want ErrEngineFailed", err)
	}
	if !strings.Contains(err.Error(), "injected crash") {
		t.Errorf("panic payload lost: %v", err)
	}
}

func TestPanicFallsBackToNextEngine(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Enable(faultinject.SiteQFree, faultinject.Fault{Panic: "qfree down"})
	rng := rand.New(rand.NewSource(11))
	d := randUDB(rng, 3, 3)
	res, err := Reliability(bg, d, logic.MustParse("S(x)", nil), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != "world-enum" {
		t.Errorf("engine %q, want world-enum after the qfree crash", res.Engine)
	}
	if len(res.FallbackTrail) != 1 || res.FallbackTrail[0].Engine != string(EngineQFree) {
		t.Errorf("trail %v, want one qfree step", res.FallbackTrail)
	}
}

func TestAnytimeMonteCarloDirectDegrades(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d := randUDB(rng, 3, 6)
	f := logic.MustParse("forall x . exists y . E(x,y)", nil)
	opts := Options{Eps: 0.01, Delta: 0.05, Budget: Budget{MaxSamples: 100}}
	res, err := ReliabilityWith(bg, EngineMCDirect, d, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("100-sample run against eps=0.01 not marked Degraded")
	}
	if res.Samples > 100 {
		t.Errorf("drew %d samples, budget 100", res.Samples)
	}
	if res.Eps <= 0.01 || res.Eps > 1 {
		t.Errorf("widened eps %v outside (0.01, 1]", res.Eps)
	}
	if res.RFloat < -res.Eps || res.RFloat > 1+res.Eps {
		t.Errorf("degraded estimate R=%v implausible", res.RFloat)
	}
}

func TestAnytimeMonteCarloCancellationMidRun(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d := randUDB(rng, 4, 10)
	f := logic.MustParse("forall x . exists y . E(x,y)", nil)
	// A deadline that fires mid-sampling: eps=0.004 needs ~115k samples.
	opts := Options{Eps: 0.004, Delta: 0.05, Budget: Budget{Timeout: 50 * time.Millisecond}}
	res, err := ReliabilityWith(bg, EngineMCDirect, d, f, opts)
	if err != nil {
		// Machine too fast/slow: the only acceptable error is a cancel
		// before the first sample.
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("unexpected error %v", err)
		}
		t.Skip("canceled before the first sample on this machine")
	}
	if !res.Degraded {
		t.Skip("sampling finished inside the deadline on this machine")
	}
	if res.Eps <= 0.004 || res.Eps > 1 {
		t.Errorf("widened eps %v outside (0.004, 1]", res.Eps)
	}
	if res.Samples <= 0 {
		t.Errorf("degraded result with %d samples", res.Samples)
	}
}

func TestFallbackTrailConjunctiveUnsafe(t *testing.T) {
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(14))
	d := randUDB(rng, 3, 4)
	// Self-join: conjunctive but outside the safe-plan fragment.
	f := logic.MustParse("exists x y . E(x,y) & E(y,x)", nil)
	opts := Options{Eps: 0.2, Delta: 0.1, MaxEnumAtoms: -1}

	// Rung 1 (safe plan) fails naturally; rung 2 (BDD) is crashed by
	// fault injection; the Karp–Luby FPTRAS must take over.
	faultinject.Enable(faultinject.SiteLineageBDD, faultinject.Fault{Err: fmt.Errorf("bdd knocked out")})
	res, err := Reliability(bg, d, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != "lineage-karpluby" {
		t.Fatalf("engine %q, want lineage-karpluby", res.Engine)
	}
	wantTrail := []string{string(EngineSafePlan), string(EngineLineageBDD)}
	if len(res.FallbackTrail) != len(wantTrail) {
		t.Fatalf("trail %v, want engines %v", res.FallbackTrail, wantTrail)
	}
	for i, want := range wantTrail {
		if res.FallbackTrail[i].Engine != want {
			t.Errorf("trail[%d] = %v, want engine %s", i, res.FallbackTrail[i], want)
		}
	}

	// Knock out Karp–Luby as well: the anytime direct estimator is the
	// last rung.
	faultinject.Enable(faultinject.SiteLineageKL, faultinject.Fault{Err: fmt.Errorf("kl knocked out")})
	res, err = Reliability(bg, d, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != "monte-carlo-direct" {
		t.Fatalf("engine %q, want monte-carlo-direct", res.Engine)
	}
	if len(res.FallbackTrail) != 3 {
		t.Fatalf("trail %v, want 3 steps", res.FallbackTrail)
	}
}

func TestFallbackKLOverSampleBudget(t *testing.T) {
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(15))
	d := randUDB(rng, 3, 4)
	f := logic.MustParse("exists x y . E(x,y) & E(y,x)", nil)
	// A tight eps makes Karp–Luby's required sample size enormous; the
	// sample budget rejects it up front and the anytime estimator absorbs
	// the work. The BDD rung is crashed by injection (a tiny lineage can
	// fit any node budget, so MaxBDDNodes alone is not a reliable kill).
	faultinject.Enable(faultinject.SiteLineageBDD, faultinject.Fault{Err: fmt.Errorf("bdd knocked out")})
	opts := Options{
		Eps: 0.05, Delta: 0.05, MaxEnumAtoms: -1,
		Budget: Budget{MaxSamples: 200},
	}
	res, err := Reliability(bg, d, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != "monte-carlo-direct" {
		t.Fatalf("engine %q, want monte-carlo-direct", res.Engine)
	}
	if !res.Degraded {
		t.Error("200-sample anytime run against eps=0.05 not marked Degraded")
	}
	if res.Samples > 200 {
		t.Errorf("drew %d samples, budget 200", res.Samples)
	}
	trailEngines := make([]string, len(res.FallbackTrail))
	for i, s := range res.FallbackTrail {
		trailEngines[i] = s.Engine
	}
	want := []string{string(EngineSafePlan), string(EngineLineageBDD), string(EngineLineageKL)}
	if len(trailEngines) != len(want) {
		t.Fatalf("trail %v, want %v", trailEngines, want)
	}
	for i := range want {
		if trailEngines[i] != want[i] {
			t.Fatalf("trail %v, want %v", trailEngines, want)
		}
	}
	if !strings.Contains(res.FallbackTrail[2].Err, "budget") {
		t.Errorf("KL step should record a budget failure, got %q", res.FallbackTrail[2].Err)
	}
}

func TestBudgetEchoedInResult(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	d := randUDB(rng, 3, 3)
	b := Budget{Timeout: time.Minute, MaxSamples: 1 << 20, MaxBDDNodes: 1 << 16, MaxWorlds: 1 << 20}
	res, err := Reliability(bg, d, logic.MustParse("S(x)", nil), Options{Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	if res.Budget != b {
		t.Errorf("Result.Budget = %v, want %v", res.Budget, b)
	}
	if res.Degraded || len(res.FallbackTrail) != 0 {
		t.Errorf("healthy run reported Degraded=%v trail=%v", res.Degraded, res.FallbackTrail)
	}
}

func TestWorldEnumParallelWorkerErrorCancelsSiblings(t *testing.T) {
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(17))
	d := randUDB(rng, 3, 8) // 256 worlds across the pool
	f := logic.MustParse("exists x . S(x)", nil)
	injected := fmt.Errorf("worker blew up")
	faultinject.Enable(faultinject.SiteWorldWorker, faultinject.Fault{Err: injected, Times: 1})
	_, err := WorldEnum(bg, d, f, Options{Workers: 4})
	if !errors.Is(err, injected) {
		t.Errorf("error %v, want the injected worker error (not a context error)", err)
	}
	faultinject.Reset()

	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := WorldEnum(ctx, d, f, Options{Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled enumeration error %v, want context.Canceled", err)
	}
}

func TestFaultInjectionEveryLadderRung(t *testing.T) {
	// Prove each rung's failure is absorbed by the next: knock out the
	// engines one by one and check the dispatcher lands where the ladder
	// says it must.
	rng := rand.New(rand.NewSource(18))
	d := randUDB(rng, 3, 4)
	f := logic.MustParse("exists x y . E(x,y) & E(y,x)", nil)
	opts := Options{Eps: 0.2, Delta: 0.1}
	cases := []struct {
		name       string
		sites      []string
		wantEngine string
		wantTrail  int
	}{
		{"none", nil, "world-enum", 1}, // safe plan fails naturally (self-join)
		{"world-enum out", []string{faultinject.SiteWorldEnum}, "lineage-bdd", 2},
		{"bdd out too", []string{faultinject.SiteWorldEnum, faultinject.SiteLineageBDD}, "lineage-karpluby", 3},
		{"kl out too", []string{faultinject.SiteWorldEnum, faultinject.SiteLineageBDD, faultinject.SiteLineageKL}, "monte-carlo-direct", 4},
	}
	for _, c := range cases {
		faultinject.Reset()
		for _, site := range c.sites {
			faultinject.Enable(site, faultinject.Fault{Err: fmt.Errorf("%s injected down", site)})
		}
		res, err := Reliability(bg, d, f, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Engine != c.wantEngine {
			t.Errorf("%s: engine %q, want %q", c.name, res.Engine, c.wantEngine)
		}
		if len(res.FallbackTrail) != c.wantTrail {
			t.Errorf("%s: trail %v, want %d steps", c.name, res.FallbackTrail, c.wantTrail)
		}
	}
	faultinject.Reset()
}

func TestClassifyErr(t *testing.T) {
	cases := []struct {
		err  error
		want error
	}{
		{context.Canceled, ErrCanceled},
		{context.DeadlineExceeded, ErrCanceled},
		{fmt.Errorf("wrapped: %w", unreliable.ErrEnumBudget), ErrBudgetExceeded},
		{ErrInfeasible, ErrInfeasible},
	}
	for _, c := range cases {
		if got := classifyErr(c.err); !errors.Is(got, c.want) {
			t.Errorf("classifyErr(%v) = %v, want Is(%v)", c.err, got, c.want)
		}
	}
	if classifyErr(nil) != nil {
		t.Error("classifyErr(nil) != nil")
	}
	plain := fmt.Errorf("plain")
	if classifyErr(plain) != plain {
		t.Error("plain errors must pass through unchanged")
	}
}

func TestBudgetString(t *testing.T) {
	if got := (Budget{}).String(); got != "unbounded" {
		t.Errorf("zero budget renders %q", got)
	}
	b := Budget{Timeout: time.Second, MaxSamples: 10, MaxBDDNodes: 20, MaxWorlds: 30}
	if got := b.String(); !strings.Contains(got, "samples=10") || !strings.Contains(got, "worlds=30") {
		t.Errorf("budget renders %q", got)
	}
}

// TestAnytimeDegradedStillBrackets checks the degraded interval remains
// valid: the widened [R−eps, R+eps] must contain the exact reliability.
func TestAnytimeDegradedStillBrackets(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for iter := 0; iter < 5; iter++ {
		d := randUDB(rng, 3, 5)
		f := logic.MustParse("exists x y . E(x,y)", nil)
		exact, err := WorldEnum(bg, d, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		deg, err := ReliabilityWith(bg, EngineMCDirect, d, f,
			Options{Eps: 0.01, Delta: 0.05, Seed: int64(iter), Budget: Budget{MaxSamples: 150}})
		if err != nil {
			t.Fatal(err)
		}
		if !deg.Degraded {
			t.Fatal("budgeted run not degraded")
		}
		lo, hi := deg.RFloat-deg.Eps, deg.RFloat+deg.Eps
		if exact.RFloat < lo-1e-12 || exact.RFloat > hi+1e-12 {
			// A single Hoeffding miss at delta=0.05 is possible but five
			// seeds in a row all landing inside is the overwhelming case;
			// report the miss with its seed for reproducibility.
			t.Errorf("iter %d: exact R=%v outside degraded interval [%v, %v]", iter, exact.RFloat, lo, hi)
		}
	}
}

// TestExactHelpersHonorCanceledContext: the exact helpers outside the
// engine table run under the caller's context with ReliabilityWith's
// taxonomy. An already-canceled context ends each with ErrCanceled
// before a single world is visited (at most the observed answer is
// evaluated), and an enumeration past MaxEnumAtoms is ErrBudgetExceeded.
func TestExactHelpersHonorCanceledContext(t *testing.T) {
	defer faultinject.SetCounting(false)
	d := randUDB(rand.New(rand.NewSource(45)), 4, 12)
	fo := logic.MustParse("exists y . E(x,y) & S(y)", nil)
	qf := logic.MustParse("E(x,y) & !S(x)", nil)
	atom := d.UncertainAtoms()[0]
	helpers := map[string]func(context.Context, Options) error{
		"ExpectedErrorPerTuple": func(ctx context.Context, o Options) error {
			_, err := ExpectedErrorPerTuple(ctx, d, fo, o)
			return err
		},
		"AtomSensitivity": func(ctx context.Context, o Options) error {
			_, err := AtomSensitivity(ctx, d, fo, atom, o)
			return err
		},
		"RankSensitivities": func(ctx context.Context, o Options) error {
			_, err := RankSensitivities(ctx, d, fo, o)
			return err
		},
		"AbsoluteReliability/witness": func(ctx context.Context, o Options) error {
			_, err := AbsoluteReliability(ctx, d, fo, o)
			return err
		},
		"AbsoluteReliability/qfree": func(ctx context.Context, o Options) error {
			_, err := AbsoluteReliability(ctx, d, qf, o)
			return err
		},
		"PossibleCertainAnswers": func(ctx context.Context, o Options) error {
			_, err := PossibleCertainAnswers(ctx, d, fo, o)
			return err
		},
	}
	canceled, cancel := context.WithCancel(bg)
	cancel()
	for name, run := range helpers {
		t.Run(name, func(t *testing.T) {
			faultinject.SetCounting(true)
			faultinject.ResetCounters()
			err := run(canceled, Options{})
			counts := faultinject.Counters()
			faultinject.SetCounting(false)
			if !errors.Is(err, ErrCanceled) {
				t.Errorf("canceled context: %v, want ErrCanceled", err)
			}
			if a, w := counts[faultinject.SiteAnswerSet].Hits, counts[faultinject.SiteWorldWorker].Hits; a > 1 || w > 0 {
				t.Errorf("canceled context: %d answer sets and %d world blocks evaluated, want at most the observed answer", a, w)
			}
			if name == "AbsoluteReliability/qfree" {
				return // Proposition 3.1 enumerates no worlds
			}
			if err := run(bg, Options{MaxEnumAtoms: 4}); !errors.Is(err, ErrBudgetExceeded) {
				t.Errorf("12 atoms over an enumeration budget of 4: %v, want ErrBudgetExceeded", err)
			}
		})
	}
}
