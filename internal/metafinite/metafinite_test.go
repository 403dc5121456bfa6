package metafinite

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

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
	if err := u.ForEachWorld(3, func(*FDB, *big.Rat) bool { return true }); err == nil {
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
			qf, err := QuantifierFree(u, tm, 0)
			if err != nil {
				t.Fatalf("iter %d %v: %v", iter, tm, err)
			}
			we, err := WorldEnum(u, tm, 0)
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
	if _, err := QuantifierFree(u, SumAgg{"x", NumInt(1)}, 0); err == nil {
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
	res, err := WorldEnum(u, sum, 0)
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
	res, err = WorldEnum(u, max, 0)
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
	res, err := QuantifierFree(u, tm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.H.Cmp(big.NewRat(1, 1)) != 0 {
		t.Errorf("H = %v, want 1 (one certainly-wrong tuple)", res.H)
	}
	we, err := WorldEnum(u, tm, 0)
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
	exact, err := WorldEnum(u, avg, 0)
	if err != nil {
		t.Fatal(err)
	}
	est, err := MonteCarlo(u, avg, 0.03, 0.01, rand.New(rand.NewSource(60)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.RFloat-exact.RFloat) > 0.03 {
		t.Errorf("MC R %v, exact %v", est.RFloat, exact.RFloat)
	}
	if est.Samples == 0 || est.Engine != "mf-monte-carlo" {
		t.Errorf("result metadata wrong: %+v", est)
	}
	// Parameter validation propagates.
	if _, err := MonteCarlo(u, avg, 0, 0.5, rand.New(rand.NewSource(1))); err == nil {
		t.Error("bad eps accepted")
	}
}

func TestKAryMetafiniteReliability(t *testing.T) {
	// Unary query: salary(x). One uncertain site with flip prob 1/4
	// affects exactly one of three tuples: H = 1/4, R = 1 − (1/4)/3.
	u := NewUDB(salaryDB())
	u.MustSetDist(Site{Fn: "salary", Args: []int{1}}, []Weighted{w(200, 3, 4), w(250, 1, 4)})
	tm := FApp{Fn: "salary", Args: []FOTerm{V("x")}}
	res, err := QuantifierFree(u, tm, 0)
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

func TestSampleWorldDistribution(t *testing.T) {
	u := NewUDB(salaryDB())
	u.MustSetDist(Site{Fn: "salary", Args: []int{0}}, []Weighted{w(100, 1, 4), w(150, 3, 4)})
	rng := rand.New(rand.NewSource(70))
	count := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		b := u.SampleWorld(rng)
		if b.Funcs["salary"].Get([]int{0}).Cmp(big.NewRat(150, 1)) == 0 {
			count++
		}
	}
	freq := float64(count) / trials
	if freq < 0.72 || freq > 0.78 {
		t.Errorf("sample frequency %.4f, want ≈ 0.75", freq)
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
