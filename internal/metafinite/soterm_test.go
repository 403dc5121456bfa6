package metafinite

import (
	"math/big"
	"testing"
)

func TestSOSumHand(t *testing.T) {
	// Universe {0,1}; Σ_S count_x([x ∈ S]) over the 4 subsets:
	// |∅| + |{0}| + |{1}| + |{0,1}| = 0 + 1 + 1 + 2 = 4.
	db := mustFDB(2)
	body := CountAgg{Var: "x", Body: InSet("S", V("x"))}
	term := SOSum{Set: "S", Arity: 1, Body: body}
	got, err := term.Eval(db, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewRat(4, 1)) != 0 {
		t.Errorf("sumset = %v, want 4", got)
	}
	// Max over subsets of |S| is 2, min is 0.
	maxT := SOMax{Set: "S", Arity: 1, Body: body}
	minT := SOMin{Set: "S", Arity: 1, Body: body}
	if v, _ := maxT.Eval(db, Env{}); v.Cmp(big.NewRat(2, 1)) != 0 {
		t.Errorf("maxset = %v, want 2", v)
	}
	if v, _ := minT.Eval(db, Env{}); v.Sign() != 0 {
		t.Errorf("minset = %v, want 0", v)
	}
}

func TestSOSumCountsSubsetsWeighted(t *testing.T) {
	// Σ_S Π_x ([x ∈ S]·w + (1−[x ∈ S])) with w = 2 counts each subset
	// with weight 2^|S|: over n=2 that is (1+2)² = 9 (binomial theorem).
	db := mustFDB(2)
	member := InSet("S", V("x"))
	weight := Add{
		L: Mul{L: member, R: NumInt(2)},
		R: Sub{L: NumInt(1), R: member},
	}
	term := SOSum{Set: "S", Arity: 1, Body: ProdAgg{Var: "x", Body: weight}}
	got, err := term.Eval(db, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewRat(9, 1)) != 0 {
		t.Errorf("weighted sumset = %v, want 9", got)
	}
}

func TestSOBudgetAndValidation(t *testing.T) {
	// 6 elements, arity 2: 36 cells > MaxSOCells.
	db := mustFDB(6)
	term := SOSum{Set: "S", Arity: 2, Body: NumInt(1)}
	if _, err := term.Eval(db, Env{}); err == nil {
		t.Error("SO budget not enforced")
	}
	// Set variable clashing with a database function.
	db2 := mustFDB(2, FuncSym{"S", 1})
	term2 := SOSum{Set: "S", Arity: 1, Body: NumInt(1)}
	if _, err := term2.Eval(db2, Env{}); err == nil {
		t.Error("function shadowing accepted")
	}
	// Arity out of range.
	term3 := SOSum{Set: "S", Arity: 9, Body: NumInt(1)}
	if _, err := term3.Eval(db2, Env{}); err == nil {
		t.Error("oversized arity accepted")
	}
}

func TestSOClassification(t *testing.T) {
	term := SOSum{Set: "S", Arity: 1, Body: NumInt(1)}
	if IsQuantifierFree(term) {
		t.Error("SO aggregate classified quantifier-free")
	}
	if len(FreeVars(term)) != 0 {
		t.Error("closed SO term has free variables")
	}
	open := SOSum{Set: "S", Arity: 1, Body: Add{L: InSet("S", V("x")), R: FApp{Fn: "f", Args: []FOTerm{V("y")}}}}
	fv := FreeVars(open)
	if len(fv) != 2 {
		t.Errorf("FreeVars = %v", fv)
	}
}

func TestSOReliability(t *testing.T) {
	// Theorem 6.2 (iii) exercised end to end: the reliability of a
	// second-order aggregate on an unreliable functional database, via
	// world enumeration. Query: max_S of Σ_x [x∈S]·f(x) — i.e. the sum
	// of the positive part of f (choose S = {x : f(x) > 0}).
	db := mustFDB(2, FuncSym{"f", 1})
	db.SetF("f", 5, 0)
	db.SetF("f", -3, 1)
	u := NewUDB(db)
	u.MustSetDist(Site{Fn: "f", Args: []int{1}}, []Weighted{
		{Value: big.NewRat(-3, 1), P: big.NewRat(1, 2)},
		{Value: big.NewRat(2, 1), P: big.NewRat(1, 2)},
	})
	body := SumAgg{Var: "x", Body: Mul{L: InSet("S", V("x")), R: FApp{Fn: "f", Args: []FOTerm{V("x")}}}}
	term := SOMax{Set: "S", Arity: 1, Body: body}
	// Observed: positive part = 5. World with f(1)=2: positive part 7.
	obs, err := term.Eval(u.Obs, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if obs.Cmp(big.NewRat(5, 1)) != 0 {
		t.Fatalf("observed = %v, want 5", obs)
	}
	res, err := WorldEnum(bg, u, term, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.H.Cmp(big.NewRat(1, 2)) != 0 {
		t.Errorf("H = %v, want 1/2", res.H)
	}
}

func TestSOStrings(t *testing.T) {
	term := SOSum{Set: "S", Arity: 1, Body: NumInt(1)}
	if got := term.String(); got != "sumset_S/1(1)" {
		t.Errorf("String = %q", got)
	}
	if got := (SOMax{Set: "T", Arity: 2, Body: NumInt(0)}).String(); got != "maxset_T/2(0)" {
		t.Errorf("String = %q", got)
	}
	if got := (SOMin{Set: "T", Arity: 2, Body: NumInt(0)}).String(); got != "minset_T/2(0)" {
		t.Errorf("String = %q", got)
	}
}
