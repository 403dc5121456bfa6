package metafinite

import (
	"context"
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"qrel/internal/mc"
	"qrel/internal/unreliable"
)

var bg = context.Background()

// salaryDB: universe of 3 employees, salary/1 and dept/1 functions.
func salaryDB() *FDB {
	db := mustFDB(3, FuncSym{"salary", 1}, FuncSym{"dept", 1})
	db.SetF("salary", 100, 0)
	db.SetF("salary", 200, 1)
	db.SetF("salary", 300, 2)
	db.SetF("dept", 1, 0)
	db.SetF("dept", 1, 1)
	db.SetF("dept", 2, 2)
	return db
}

func w(value, num, den int64) Weighted {
	return Weighted{Value: big.NewRat(value, 1), P: big.NewRat(num, den)}
}

func TestTermEvaluation(t *testing.T) {
	db := salaryDB()
	cases := []struct {
		term Term
		want *big.Rat
	}{
		{NumInt(7), big.NewRat(7, 1)},
		{FApp{Fn: "salary", Args: []FOTerm{elem(1)}}, big.NewRat(200, 1)},
		{Add{NumInt(1), NumInt(2)}, big.NewRat(3, 1)},
		{Sub{NumInt(1), NumInt(2)}, big.NewRat(-1, 1)},
		{Mul{NumInt(3), NumInt(4)}, big.NewRat(12, 1)},
		{Min2{NumInt(3), NumInt(4)}, big.NewRat(3, 1)},
		{Max2{NumInt(3), NumInt(4)}, big.NewRat(4, 1)},
		{CharEq{NumInt(3), NumInt(3)}, big.NewRat(1, 1)},
		{CharEq{NumInt(3), NumInt(4)}, new(big.Rat)},
		{CharLess{NumInt(3), NumInt(4)}, big.NewRat(1, 1)},
		{CharLess{NumInt(4), NumInt(3)}, new(big.Rat)},
		{SumAgg{"x", FApp{Fn: "salary", Args: []FOTerm{V("x")}}}, big.NewRat(600, 1)},
		{ProdAgg{"x", NumInt(2)}, big.NewRat(8, 1)},
		{MinAgg{"x", FApp{Fn: "salary", Args: []FOTerm{V("x")}}}, big.NewRat(100, 1)},
		{MaxAgg{"x", FApp{Fn: "salary", Args: []FOTerm{V("x")}}}, big.NewRat(300, 1)},
		{AvgAgg{"x", FApp{Fn: "salary", Args: []FOTerm{V("x")}}}, big.NewRat(200, 1)},
		{CountAgg{"x", CharEq{FApp{Fn: "dept", Args: []FOTerm{V("x")}}, NumInt(1)}}, big.NewRat(2, 1)},
	}
	for _, c := range cases {
		got, err := c.term.Eval(db, Env{})
		if err != nil {
			t.Fatalf("%v: %v", c.term, err)
		}
		if got.Cmp(c.want) != 0 {
			t.Errorf("%v = %v, want %v", c.term, got, c.want)
		}
	}
}

func TestTermErrors(t *testing.T) {
	db := salaryDB()
	bad := []Term{
		FApp{Fn: "nope", Args: []FOTerm{elem(0)}},
		FApp{Fn: "salary", Args: []FOTerm{elem(0), elem(1)}},
		FApp{Fn: "salary", Args: []FOTerm{V("unbound")}},
		FApp{Fn: "salary", Args: []FOTerm{elem(9)}},
	}
	for _, term := range bad {
		if _, err := term.Eval(db, Env{}); err == nil {
			t.Errorf("%v: expected error", term)
		}
	}
	empty := mustFDB(0)
	for _, term := range []Term{
		MinAgg{"x", NumInt(0)}, MaxAgg{"x", NumInt(0)}, AvgAgg{"x", NumInt(0)},
	} {
		if _, err := term.Eval(empty, Env{}); err == nil {
			t.Errorf("%v over empty universe: expected error", term)
		}
	}
}

func TestFreeVarsAndClassification(t *testing.T) {
	tm := Add{
		FApp{Fn: "salary", Args: []FOTerm{V("x")}},
		SumAgg{"y", FApp{Fn: "salary", Args: []FOTerm{V("y")}}},
	}
	fv := FreeVars(tm)
	if len(fv) != 1 || fv[0] != "x" {
		t.Errorf("FreeVars = %v", fv)
	}
	if IsQuantifierFree(tm) {
		t.Error("aggregate term classified quantifier-free")
	}
	qf := Mul{FApp{Fn: "salary", Args: []FOTerm{V("x")}}, NumInt(2)}
	if !IsQuantifierFree(qf) {
		t.Error("arithmetic term misclassified")
	}
}

func TestSites(t *testing.T) {
	db := salaryDB()
	tm := Add{
		FApp{Fn: "salary", Args: []FOTerm{elem(0)}},
		FApp{Fn: "salary", Args: []FOTerm{elem(0)}}, // duplicate site
	}
	sites, err := sitesOf(tm, db, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 1 {
		t.Errorf("Sites = %v, want 1 distinct site", sites)
	}
	agg := SumAgg{"x", FApp{Fn: "salary", Args: []FOTerm{V("x")}}}
	sites, err = sitesOf(agg, db, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 3 {
		t.Errorf("aggregate sites = %v, want 3", sites)
	}
}

func TestUDBValidation(t *testing.T) {
	u := NewUDB(salaryDB())
	s := Site{Fn: "salary", Args: []int{0}}
	if err := u.SetDist(Site{Fn: "nope", Args: []int{0}}, []Weighted{w(1, 1, 1)}); err == nil {
		t.Error("unknown function accepted")
	}
	if err := u.SetDist(Site{Fn: "salary", Args: []int{0, 1}}, []Weighted{w(1, 1, 1)}); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := u.SetDist(Site{Fn: "salary", Args: []int{9}}, []Weighted{w(1, 1, 1)}); err == nil {
		t.Error("out-of-universe site accepted")
	}
	if err := u.SetDist(s, []Weighted{w(1, 1, 2)}); err == nil {
		t.Error("sub-normalized distribution accepted")
	}
	if err := u.SetDist(s, []Weighted{w(1, 1, 2), w(1, 1, 2)}); err == nil {
		t.Error("duplicate values accepted")
	}
	if err := u.SetDist(s, []Weighted{w(1, -1, 2), w(2, 3, 2)}); err == nil {
		t.Error("negative probability accepted")
	}
	// Zero-probability outcomes dropped.
	if err := u.SetDist(s, []Weighted{w(100, 1, 1), w(999, 0, 1)}); err != nil {
		t.Fatal(err)
	}
	if got := u.Dist(s); len(got) != 1 {
		t.Errorf("Dist kept zero-probability outcome: %v", got)
	}
	// Unset site: observed value with probability 1.
	d := u.Dist(Site{Fn: "salary", Args: []int{1}})
	if len(d) != 1 || d[0].Value.Cmp(big.NewRat(200, 1)) != 0 || d[0].P.Cmp(big.NewRat(1, 1)) != 0 {
		t.Errorf("default dist = %v", d)
	}
}

func TestWorldEnumeration(t *testing.T) {
	u := NewUDB(salaryDB())
	u.MustSetDist(Site{Fn: "salary", Args: []int{0}}, []Weighted{w(100, 2, 3), w(150, 1, 3)})
	u.MustSetDist(Site{Fn: "salary", Args: []int{1}}, []Weighted{w(200, 1, 2), w(210, 1, 4), w(220, 1, 4)})
	if got := u.WorldCount().Int64(); got != 6 {
		t.Errorf("WorldCount = %d, want 6", got)
	}
	if err := u.ValidateWorldProbabilities(100); err != nil {
		t.Fatal(err)
	}
	if len(u.UncertainSites()) != 2 {
		t.Error("uncertain site count wrong")
	}
	// Budget enforcement.
	if err := u.ForEachWorld(bg, 3, func(*FDB, *big.Rat) bool { return true }); err == nil {
		t.Error("budget not enforced")
	}
}

func TestQuantifierFreeMatchesWorldEnum(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for iter := 0; iter < 15; iter++ {
		db := salaryDB()
		u := NewUDB(db)
		// Random uncertainty on a few sites.
		for i := 0; i < 3; i++ {
			if rng.Intn(2) == 0 {
				continue
			}
			base := db.Funcs["salary"].Get([]int{i})
			delta := big.NewRat(int64(10+rng.Intn(50)), 1)
			u.MustSetDist(Site{Fn: "salary", Args: []int{i}}, []Weighted{
				{Value: base, P: big.NewRat(3, 4)},
				{Value: new(big.Rat).Add(base, delta), P: big.NewRat(1, 4)},
			})
		}
		terms := []Term{
			FApp{Fn: "salary", Args: []FOTerm{V("x")}},
			Add{FApp{Fn: "salary", Args: []FOTerm{V("x")}}, FApp{Fn: "salary", Args: []FOTerm{elem(0)}}},
			CharLess{FApp{Fn: "salary", Args: []FOTerm{V("x")}}, NumInt(250)},
			Max2{FApp{Fn: "salary", Args: []FOTerm{elem(0)}}, FApp{Fn: "salary", Args: []FOTerm{elem(1)}}},
		}
		for _, tm := range terms {
			qf, err := QuantifierFree(bg, u, tm, 0)
			if err != nil {
				t.Fatalf("iter %d %v: %v", iter, tm, err)
			}
			we, err := WorldEnum(bg, u, tm, 0)
			if err != nil {
				t.Fatal(err)
			}
			if qf.H.Cmp(we.H) != 0 {
				t.Fatalf("iter %d %v: qfree H %v != enum H %v", iter, tm, qf.H, we.H)
			}
			if qf.R.Cmp(we.R) != 0 {
				t.Fatalf("iter %d %v: R mismatch", iter, tm)
			}
		}
	}
}

func TestQuantifierFreeRejectsAggregates(t *testing.T) {
	u := NewUDB(salaryDB())
	if _, err := QuantifierFree(bg, u, SumAgg{"x", NumInt(1)}, 0); err == nil {
		t.Error("aggregate accepted by quantifier-free engine")
	}
}

func TestAggregateReliabilityExact(t *testing.T) {
	// Hand-computed: salary(0) ∈ {100 w.p. 1/2, 150 w.p. 1/2};
	// query SUM salary. Observed sum 600; actual 600 or 650 w.p. 1/2.
	// H = 1/2, R = 1/2 (Boolean query k = 0).
	u := NewUDB(salaryDB())
	u.MustSetDist(Site{Fn: "salary", Args: []int{0}}, []Weighted{w(100, 1, 2), w(150, 1, 2)})
	sum := SumAgg{"x", FApp{Fn: "salary", Args: []FOTerm{V("x")}}}
	res, err := WorldEnum(bg, u, sum, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.H.Cmp(big.NewRat(1, 2)) != 0 {
		t.Errorf("H = %v, want 1/2", res.H)
	}
	if res.R.Cmp(big.NewRat(1, 2)) != 0 {
		t.Errorf("R = %v, want 1/2", res.R)
	}
	// MAX is insensitive to this change (300 stays maximal): H = 0.
	max := MaxAgg{"x", FApp{Fn: "salary", Args: []FOTerm{V("x")}}}
	res, err = WorldEnum(bg, u, max, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.H.Sign() != 0 {
		t.Errorf("max H = %v, want 0", res.H)
	}
}

func TestDeterministicOverride(t *testing.T) {
	// A single-support distribution that differs from the observed value
	// forces H = 1 for the touched tuple.
	u := NewUDB(salaryDB())
	u.MustSetDist(Site{Fn: "salary", Args: []int{0}}, []Weighted{w(999, 1, 1)})
	tm := FApp{Fn: "salary", Args: []FOTerm{V("x")}}
	res, err := QuantifierFree(bg, u, tm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.H.Cmp(big.NewRat(1, 1)) != 0 {
		t.Errorf("H = %v, want 1 (one certainly-wrong tuple)", res.H)
	}
	we, err := WorldEnum(bg, u, tm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if we.H.Cmp(res.H) != 0 {
		t.Error("engines disagree on deterministic override")
	}
}

func TestMetafiniteMonteCarlo(t *testing.T) {
	u := NewUDB(salaryDB())
	u.MustSetDist(Site{Fn: "salary", Args: []int{0}}, []Weighted{w(100, 1, 2), w(150, 1, 2)})
	u.MustSetDist(Site{Fn: "salary", Args: []int{2}}, []Weighted{w(300, 3, 4), w(400, 1, 4)})
	avg := AvgAgg{"x", FApp{Fn: "salary", Args: []FOTerm{V("x")}}}
	exact, err := WorldEnum(bg, u, avg, 0)
	if err != nil {
		t.Fatal(err)
	}
	est, err := MonteCarlo(bg, u, avg, 0.03, 0.01, 60)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.RFloat-exact.RFloat) > 0.03 {
		t.Errorf("MC R %v, exact %v", est.RFloat, exact.RFloat)
	}
	if est.Samples == 0 || est.Engine != "mf-monte-carlo" {
		t.Errorf("result metadata wrong: %+v", est)
	}
	// The estimate is a function of the seed.
	again, err := MonteCarlo(bg, u, avg, 0.03, 0.01, 60)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(again.RFloat) != math.Float64bits(est.RFloat) || again.Samples != est.Samples {
		t.Errorf("same seed: R %v (%d samples), then %v (%d samples)", est.RFloat, est.Samples, again.RFloat, again.Samples)
	}
	// Parameter validation propagates.
	if _, err := MonteCarlo(bg, u, avg, 0, 0.5, 1); err == nil {
		t.Error("bad eps accepted")
	}
}

// TestMonteCarloCoverage is an empirical (ε, δ) check of MonteCarlo,
// like mc's TestEstimatorCoverage: each of 2 000 seeded runs misses the
// exact reliability by more than ε with probability below δ, so the
// misses must stay within δ·runs.
func TestMonteCarloCoverage(t *testing.T) {
	const runs, eps, delta = 2000, 0.1, 0.1
	u := NewUDB(salaryDB())
	u.MustSetDist(Site{Fn: "salary", Args: []int{0}}, []Weighted{w(100, 1, 2), w(150, 1, 2)})
	u.MustSetDist(Site{Fn: "salary", Args: []int{1}}, []Weighted{w(200, 2, 3), w(250, 1, 3)})
	tm := CharLess{NumInt(650), SumAgg{"x", FApp{Fn: "salary", Args: []FOTerm{V("x")}}}}
	exact, err := WorldEnum(bg, u, tm, 0)
	if err != nil {
		t.Fatal(err)
	}
	misses := 0
	for r := 0; r < runs; r++ {
		est, err := MonteCarlo(bg, u, tm, eps, delta, int64(r))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est.RFloat-exact.RFloat) > eps {
			misses++
		}
	}
	if misses > int(delta*runs) {
		t.Errorf("%d of %d runs missed R = %v by more than ε = %v, budget %d", misses, runs, exact.RFloat, eps, int(delta*runs))
	}
	t.Logf("%d of %d runs outside ε of R = %v", misses, runs, exact.RFloat)
}

// TestEnginesHonorCanceledContext: an already-canceled context ends
// every engine with the context's error — the exact engines before
// their first world or site combination, the estimator before its first
// sample.
func TestEnginesHonorCanceledContext(t *testing.T) {
	u := NewUDB(salaryDB())
	u.MustSetDist(Site{Fn: "salary", Args: []int{0}}, []Weighted{w(100, 1, 2), w(150, 1, 2)})
	qf := FApp{Fn: "salary", Args: []FOTerm{V("x")}}
	sum := SumAgg{"x", qf}
	ctx, cancel := context.WithCancel(bg)
	cancel()
	engines := map[string]func() (Result, error){
		"QuantifierFree": func() (Result, error) { return QuantifierFree(ctx, u, qf, 0) },
		"WorldEnum":      func() (Result, error) { return WorldEnum(ctx, u, sum, 0) },
		"MonteCarlo":     func() (Result, error) { return MonteCarlo(ctx, u, sum, 0.05, 0.05, 1) },
	}
	for name, run := range engines {
		if _, err := run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a canceled context: %v, want context.Canceled", name, err)
		}
	}
}

// TestBudgetRefusalsAreEnumBudget: both budget refusals — too many
// worlds, too many site combinations for one tuple — wrap
// unreliable.ErrEnumBudget, the sentinel callers fall back on, and say
// the word "budget" once.
func TestBudgetRefusalsAreEnumBudget(t *testing.T) {
	u := NewUDB(salaryDB())
	for i := 0; i < 3; i++ {
		u.MustSetDist(Site{Fn: "salary", Args: []int{i}}, []Weighted{w(1, 1, 2), w(2, 1, 2)})
	}
	all := Add{Add{FApp{Fn: "salary", Args: []FOTerm{elem(0)}}, FApp{Fn: "salary", Args: []FOTerm{elem(1)}}}, FApp{Fn: "salary", Args: []FOTerm{elem(2)}}}
	_, err := WorldEnum(bg, u, all, 4)
	if !errors.Is(err, unreliable.ErrEnumBudget) {
		t.Errorf("8 worlds over a budget of 4: %v, want ErrEnumBudget", err)
	} else if want := unreliable.ErrEnumBudget.Error() + ": metafinite: 8 worlds, budget 4"; err.Error() != want {
		t.Errorf("8 worlds over a budget of 4: %q, want %q", err, want)
	}
	_, err = QuantifierFree(bg, u, all, 4)
	if !errors.Is(err, unreliable.ErrEnumBudget) {
		t.Errorf("8 site combinations over a budget of 4: %v, want ErrEnumBudget", err)
	} else if want := unreliable.ErrEnumBudget.Error() + ": metafinite: 8 site combinations, budget 4"; err.Error() != want {
		t.Errorf("8 site combinations over a budget of 4: %q, want %q", err, want)
	}
}

func TestKAryMetafiniteReliability(t *testing.T) {
	// Unary query: salary(x). One uncertain site with flip prob 1/4
	// affects exactly one of three tuples: H = 1/4, R = 1 − (1/4)/3.
	u := NewUDB(salaryDB())
	u.MustSetDist(Site{Fn: "salary", Args: []int{1}}, []Weighted{w(200, 3, 4), w(250, 1, 4)})
	tm := FApp{Fn: "salary", Args: []FOTerm{V("x")}}
	res, err := QuantifierFree(bg, u, tm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.H.Cmp(big.NewRat(1, 4)) != 0 {
		t.Errorf("H = %v, want 1/4", res.H)
	}
	want := new(big.Rat).Sub(big.NewRat(1, 1), big.NewRat(1, 12))
	if res.R.Cmp(want) != 0 {
		t.Errorf("R = %v, want %v", res.R, want)
	}
	if res.Arity != 1 {
		t.Errorf("arity %d", res.Arity)
	}
}

// TestSampleWorldDistribution checks siteKernel's draw: each outcome of
// a three-point distribution is drawn at its probability.
func TestSampleWorldDistribution(t *testing.T) {
	u := NewUDB(salaryDB())
	u.MustSetDist(Site{Fn: "salary", Args: []int{0}}, []Weighted{w(100, 1, 4), w(150, 1, 2), w(175, 1, 4)})
	want := map[int64]float64{100: 0.25, 150: 0.5, 175: 0.25}
	const trials = 20000
	counts := map[int64]int{}
	step := u.siteKernel(func(b *FDB) (float64, error) {
		v := b.Funcs["salary"].Get([]int{0})
		counts[v.Num().Int64()]++
		return 0, nil
	})(&mc.Lane{Rng: mc.NewRand(70)})
	for drawn := 0; drawn < trials; drawn += 64 {
		if err := step(min(64, trials-drawn)); err != nil {
			t.Fatal(err)
		}
	}
	for v, p := range want {
		if freq := float64(counts[v]) / trials; math.Abs(freq-p) > 0.03 {
			t.Errorf("salary(0) = %d drawn with frequency %.4f, want ≈ %v", v, freq, p)
		}
	}
	if len(counts) != len(want) {
		t.Errorf("drawn values %v, want the support %v", counts, want)
	}
}

// TestSiteKernelDrawAllocFree: once a lane's world holds every site,
// drawing a block of worlds allocates nothing.
func TestSiteKernelDrawAllocFree(t *testing.T) {
	u := NewUDB(salaryDB())
	u.MustSetDist(Site{Fn: "salary", Args: []int{0}}, []Weighted{w(100, 1, 4), w(150, 1, 2), w(175, 1, 4)})
	u.MustSetDist(Site{Fn: "dept", Args: []int{2}}, []Weighted{w(2, 1, 2), w(3, 1, 2)})
	step := u.siteKernel(func(*FDB) (float64, error) { return 0, nil })(&mc.Lane{Rng: mc.NewRand(1)})
	if err := step(64); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = step(64) }); allocs > 0 {
		t.Errorf("a block of 64 draws allocates %v objects, want 0", allocs)
	}
}

func TestFDBValidation(t *testing.T) {
	if _, err := NewFDB(-1); err == nil {
		t.Error("negative universe accepted")
	}
	if _, err := NewFDB(3, FuncSym{"f", 1}, FuncSym{"f", 2}); err == nil {
		t.Error("duplicate function accepted")
	}
	if _, err := NewFDB(3, FuncSym{"f", 9}); err == nil {
		t.Error("oversized arity accepted")
	}
	db := mustFDB(3, FuncSym{"f", 1})
	if err := db.SetF("g", 1, 0); err == nil {
		t.Error("unknown function set")
	}
	if err := db.SetF("f", 1, 0, 1); err == nil {
		t.Error("wrong arity set")
	}
	if err := db.SetF("f", 1, 9); err == nil {
		t.Error("out-of-universe set")
	}
}

func TestTermStrings(t *testing.T) {
	tm := SumAgg{"x", Add{FApp{Fn: "f", Args: []FOTerm{V("x"), elem(2)}}, NumInt(1)}}
	want := "sum_x((f(x,#2) + 1))"
	if got := tm.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
