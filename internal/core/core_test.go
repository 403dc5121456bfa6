package core

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"qrel/internal/bdd"
	"qrel/internal/logic"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// randUDB builds a random unreliable database over E/2, S/1.
func randUDB(rng *rand.Rand, n, uncertain int) *unreliable.DB {
	voc := rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2}, rel.RelSym{Name: "S", Arity: 1})
	s := rel.MustStructure(n, voc)
	for i := 0; i < n; i++ {
		s.MustAdd("E", rng.Intn(n), rng.Intn(n))
		if rng.Intn(2) == 0 {
			s.MustAdd("S", rng.Intn(n))
		}
	}
	d := unreliable.New(s)
	for d.NumUncertain() < uncertain {
		var atom rel.GroundAtom
		if rng.Intn(2) == 0 {
			atom = rel.GroundAtom{Rel: "E", Args: rel.Tuple{rng.Intn(n), rng.Intn(n)}}
		} else {
			atom = rel.GroundAtom{Rel: "S", Args: rel.Tuple{rng.Intn(n)}}
		}
		d.MustSetError(atom, big.NewRat(int64(1+rng.Intn(9)), 10))
	}
	return d
}

func TestQuantifierFreeMatchesWorldEnum(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	queries := []string{
		"S(x)",
		"E(x,y) & !S(x)",
		"E(x,x) | S(x)",
		"S(x) <-> S(y)",
		"E(0,1)",
		"x = y | E(x,y)",
	}
	for iter := 0; iter < 12; iter++ {
		d := randUDB(rng, 2+rng.Intn(2), 1+rng.Intn(5))
		for _, src := range queries {
			f := logic.MustParse(src, nil)
			qf, err := QuantifierFree(bg, d, f, Options{})
			if err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			we, err := WorldEnum(bg, d, f, Options{})
			if err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			if qf.H.Cmp(we.H) != 0 {
				t.Fatalf("iter %d %q: qfree H %v != enum H %v", iter, src, qf.H, we.H)
			}
			if qf.R.Cmp(we.R) != 0 {
				t.Fatalf("iter %d %q: qfree R %v != enum R %v", iter, src, qf.R, we.R)
			}
		}
	}
}

func TestQuantifierFreeRejectsQuantified(t *testing.T) {
	d := randUDB(rand.New(rand.NewSource(11)), 3, 2)
	f := logic.MustParse("exists x . S(x)", nil)
	if _, err := QuantifierFree(bg, d, f, Options{}); err == nil {
		t.Error("quantified query accepted by qfree engine")
	}
}

func TestLineageBDDMatchesWorldEnum(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	queries := []string{
		"exists x . S(x)",
		"exists x y . E(x,y) & S(x) & S(y)",
		"forall x . S(x)",
		"forall x y . E(x,y) -> S(y)",
		"exists y . E(x,y)",
		"exists y . E(x,y) & S(y)",
	}
	for iter := 0; iter < 10; iter++ {
		d := randUDB(rng, 2+rng.Intn(2), 1+rng.Intn(5))
		for _, src := range queries {
			f := logic.MustParse(src, nil)
			lb, err := LineageBDD(bg, d, f, Options{})
			if err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			we, err := WorldEnum(bg, d, f, Options{})
			if err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			if lb.H.Cmp(we.H) != 0 {
				t.Fatalf("iter %d %q: bdd H %v != enum H %v", iter, src, lb.H, we.H)
			}
		}
	}
}

func TestLineageBDDRejectsAlternation(t *testing.T) {
	d := randUDB(rand.New(rand.NewSource(13)), 3, 2)
	f := logic.MustParse("forall x . exists y . E(x,y)", nil)
	if _, err := LineageBDD(bg, d, f, Options{}); err == nil {
		t.Error("quantifier alternation accepted by lineage engine")
	}
}

func TestLineageKLApproximatesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const eps, delta = 0.1, 0.05
	failures, total := 0, 0
	for iter := 0; iter < 8; iter++ {
		d := randUDB(rng, 2, 1+rng.Intn(4))
		for _, src := range []string{"exists x . S(x)", "exists x y . E(x,y) & S(y)"} {
			f := logic.MustParse(src, nil)
			exact, err := WorldEnum(bg, d, f, Options{})
			if err != nil {
				t.Fatal(err)
			}
			approx, err := LineageKL(bg, d, f, Options{Eps: eps, Delta: delta, Seed: int64(iter)}, false)
			if err != nil {
				t.Fatal(err)
			}
			total++
			if math.Abs(approx.RFloat-exact.RFloat) > eps {
				failures++
			}
		}
	}
	if failures > 2 {
		t.Errorf("%d of %d approximations exceeded eps", failures, total)
	}
}

func TestLineageKLPaperReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	d := randUDB(rng, 2, 3)
	f := logic.MustParse("exists x . S(x)", nil)
	exact, err := WorldEnum(bg, d, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := LineageKL(bg, d, f, Options{Eps: 0.1, Delta: 0.05, Seed: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if approx.Engine != "lineage-karpluby-thm53" {
		t.Errorf("engine %q", approx.Engine)
	}
	if math.Abs(approx.RFloat-exact.RFloat) > 0.15 {
		t.Errorf("thm53 route estimate %v, exact %v", approx.RFloat, exact.RFloat)
	}
}

func TestMonteCarloApproximates(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	d := randUDB(rng, 3, 4)
	// Quantifier alternation: only MC engines apply at scale.
	f := logic.MustParse("forall x . exists y . E(x,y)", nil)
	exact, err := WorldEnum(bg, d, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mcRes, err := MonteCarlo(bg, d, f, Options{Eps: 0.1, Delta: 0.05, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mcRes.RFloat-exact.RFloat) > 0.1 {
		t.Errorf("MC %v, exact %v", mcRes.RFloat, exact.RFloat)
	}
	direct, err := MonteCarloDirect(bg, d, f, Options{Eps: 0.1, Delta: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(direct.RFloat-exact.RFloat) > 0.1 {
		t.Errorf("MC-direct %v, exact %v", direct.RFloat, exact.RFloat)
	}
	if direct.Samples >= mcRes.Samples {
		t.Logf("note: direct used %d samples, per-tuple %d", direct.Samples, mcRes.Samples)
	}
}

func TestMonteCarloKAry(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	d := randUDB(rng, 2, 3)
	f := logic.MustParse("exists y . E(x,y) & S(y)", nil) // unary query
	exact, err := WorldEnum(bg, d, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []Engine{EngineMonteCarlo, EngineMCDirect} {
		res, err := ReliabilityWith(bg, engine, d, f, Options{Eps: 0.1, Delta: 0.05, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.RFloat-exact.RFloat) > 0.1 {
			t.Errorf("%s: %v, exact %v", engine, res.RFloat, exact.RFloat)
		}
		if res.Arity != 1 {
			t.Errorf("%s: arity %d", engine, res.Arity)
		}
	}
}

func TestMonteCarloRejectsSecondOrder(t *testing.T) {
	d := randUDB(rand.New(rand.NewSource(18)), 3, 2)
	f := logic.MustParse("existsrel C/1 . exists x . C(x)", nil)
	if _, err := MonteCarlo(bg, d, f, Options{}); err == nil {
		t.Error("second-order accepted by MC engine")
	}
	if _, err := MonteCarloDirect(bg, d, f, Options{}); err == nil {
		t.Error("second-order accepted by MC-direct engine")
	}
}

func TestWorldEnumSecondOrder(t *testing.T) {
	// Non-2-colourability of an uncertain triangle.
	voc := rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2})
	s := rel.MustStructure(3, voc)
	for _, e := range [][2]int{{0, 1}, {1, 2}} {
		s.MustAdd("E", e[0], e[1])
		s.MustAdd("E", e[1], e[0])
	}
	d := unreliable.New(s)
	// The closing edge of the triangle is uncertain: present with prob 1/2.
	d.MustSetError(rel.GroundAtom{Rel: "E", Args: rel.Tuple{2, 0}}, big.NewRat(1, 2))
	d.MustSetError(rel.GroundAtom{Rel: "E", Args: rel.Tuple{0, 2}}, big.NewRat(1, 2))
	f := logic.MustParse("existsrel C/1 . forall x y . E(x,y) -> ((C(x) & !C(y)) | (!C(x) & C(y)))", nil)
	res, err := WorldEnum(bg, d, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Observed graph (path) is 2-colourable. Worlds: 4 combinations of
	// the two directed closing edges. The graph stays 2-colourable
	// unless BOTH closing edges appear? No — 2-colourability of the
	// underlying directed structure per the formula: any single directed
	// edge E(2,0) already forces colours of 2 and 0 to differ; path 0-1-2
	// gives 0 and 2 the same colour, so any closing edge breaks it.
	// Pr[no closing edge] = 1/4, so H = 3/4 and R = 1/4.
	if res.H.Cmp(big.NewRat(3, 4)) != 0 {
		t.Errorf("H = %v, want 3/4", res.H)
	}
	if res.R.Cmp(big.NewRat(1, 4)) != 0 {
		t.Errorf("R = %v, want 1/4", res.R)
	}
}

func TestExpectedErrorPerTupleSumsToH(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	d := randUDB(rng, 3, 4)
	f := logic.MustParse("exists y . E(x,y) & S(y)", nil)
	per, err := ExpectedErrorPerTuple(bg, d, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 3 {
		t.Fatalf("%d per-tuple entries, want 3", len(per))
	}
	sum := new(big.Rat)
	for _, te := range per {
		sum.Add(sum, te.H)
	}
	we, err := WorldEnum(bg, d, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cmp(we.H) != 0 {
		t.Errorf("per-tuple sum %v != H %v", sum, we.H)
	}
}

func TestAbsoluteReliability(t *testing.T) {
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})
	s := rel.MustStructure(2, voc)
	s.MustAdd("S", 0)
	d := unreliable.New(s)
	// No uncertainty: absolutely reliable.
	for _, src := range []string{"S(x)", "exists x . S(x)"} {
		res, err := AbsoluteReliability(bg, d, logic.MustParse(src, nil), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Reliable {
			t.Errorf("%q: certain database not absolutely reliable", src)
		}
	}
	// Uncertainty on an atom the query depends on.
	d.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{0}}, big.NewRat(1, 2))
	resQF, err := AbsoluteReliability(bg, d, logic.MustParse("S(x)", nil), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resQF.Reliable {
		t.Error("uncertain atom should break absolute reliability")
	}
	if resQF.Engine != "qfree-exact" {
		t.Errorf("engine %q for quantifier-free", resQF.Engine)
	}
	resEx, err := AbsoluteReliability(bg, d, logic.MustParse("exists x . S(x)", nil), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resEx.Reliable || resEx.Witness == nil {
		t.Error("witness search should find a flipping world")
	}
	// Uncertainty on an atom the query ignores: ∃x S(x) still true in
	// every world because S(0) is certain here.
	d2 := unreliable.New(s.Clone())
	d2.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{1}}, big.NewRat(1, 2))
	resIg, err := AbsoluteReliability(bg, d2, logic.MustParse("exists x . S(x)", nil), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !resIg.Reliable {
		t.Error("query not affected by the uncertain atom should stay reliable")
	}
}

func TestDispatcher(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	d := randUDB(rng, 3, 4)
	cases := []struct {
		src        string
		wantEngine string
	}{
		{"S(x)", "qfree-exact"},
		// Hierarchical conjunctive: the polynomial safe plan wins.
		{"exists x . S(x)", "safe-plan"},
		{"exists x y . S(x) & E(x,y)", "safe-plan"},
		// Self-join: outside the safe fragment, exact enumeration.
		{"exists x y . S(x) & S(y) & E(x,y)", "world-enum"},
		{"forall x . exists y . E(x,y)", "world-enum"},
	}
	for _, c := range cases {
		res, err := Reliability(bg, d, logic.MustParse(c.src, nil), Options{})
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		if res.Engine != c.wantEngine {
			t.Errorf("%q: engine %q, want %q", c.src, res.Engine, c.wantEngine)
		}
	}
	// With the enumeration budget forced to 0, non-safe existential
	// queries go to the lineage engine and FO alternation to Monte Carlo.
	optsTiny := Options{MaxEnumAtoms: -1, Eps: 0.2, Delta: 0.1}
	res, err := Reliability(bg, d, logic.MustParse("exists x y . S(x) & S(y) & E(x,y)", nil), optsTiny)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != "lineage-bdd" {
		t.Errorf("tiny budget existential: engine %q, want lineage-bdd", res.Engine)
	}
	res, err = Reliability(bg, d, logic.MustParse("forall x . exists y . E(x,y)", nil), optsTiny)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != "monte-carlo-direct" {
		t.Errorf("tiny budget FO: engine %q, want monte-carlo-direct", res.Engine)
	}
	// Unknown engine name.
	if _, err := ReliabilityWith(bg, "bogus", d, logic.MustParse("S(x)", nil), Options{}); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestDispatcherSecondOrderTooBig(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	d := randUDB(rng, 6, 2) // universe 6: SO quantifier budget exceeded
	f := logic.MustParse("existsrel R/2 . exists x y . R(x,y) & E(x,y)", nil)
	if _, err := Reliability(bg, d, f, Options{}); err == nil {
		t.Error("infeasible second-order query should error")
	}
}

func TestResultFields(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	d := randUDB(rng, 3, 2)
	f := logic.MustParse("exists x . S(x)", nil)
	res, err := WorldEnum(bg, d, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Guarantee != Exact {
		t.Errorf("guarantee %v", res.Guarantee)
	}
	if res.Guarantee.String() != "exact" {
		t.Errorf("guarantee string %q", res.Guarantee.String())
	}
	if RelativeError.String() == AbsoluteError.String() {
		t.Error("guarantee strings collide")
	}
	// R + H/n^k = 1 exactly.
	sum := new(big.Rat).Add(res.R, res.H) // k = 0, normalizer 1
	if sum.Cmp(big.NewRat(1, 1)) != 0 {
		t.Errorf("R + H = %v, want 1", sum)
	}
	// Float mirrors.
	if hf, _ := res.H.Float64(); hf != res.HFloat {
		t.Error("HFloat mismatch")
	}
}

func TestBooleanQueryReliabilityIdentity(t *testing.T) {
	// For a Boolean existential query, H = nu(psi) or 1 − nu(psi)
	// depending on the observed value (proof of Corollary 5.5).
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 10; iter++ {
		d := randUDB(rng, 2, 3)
		f := logic.MustParse("exists x y . E(x,y) & S(x)", nil)
		lf, flipped, err := lineageForm(f)
		if err != nil {
			t.Fatal(err)
		}
		nu, err := lineageProb(bg, bdd.New(0, 0), d, lf, flipped, logic.Env{})
		if err != nil {
			t.Fatal(err)
		}
		obs, err := logic.EvalSentence(d.A, f)
		if err != nil {
			t.Fatal(err)
		}
		we, err := WorldEnum(bg, d, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := new(big.Rat)
		if obs {
			want.Sub(big.NewRat(1, 1), nu)
		} else {
			want.Set(nu)
		}
		if we.H.Cmp(want) != 0 {
			t.Fatalf("iter %d: H %v, want %v (nu %v, obs %v)", iter, we.H, want, nu, obs)
		}
	}
}

func TestSafePlanEngineMatchesExact(t *testing.T) {
	// The safe-plan engine agrees exactly with enumeration and the BDD
	// on hierarchical conjunctive queries, Boolean and k-ary.
	rng := rand.New(rand.NewSource(81))
	queries := []string{
		"exists x . S(x)",
		"exists x y . S(x) & E(x,y)",
		"exists y . E(x,y)", // unary
	}
	for iter := 0; iter < 8; iter++ {
		d := randUDB(rng, 3, 5)
		for _, src := range queries {
			f := logic.MustParse(src, nil)
			sp, err := SafePlan(bg, d, f, Options{})
			if err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			we, err := WorldEnum(bg, d, f, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if sp.H.Cmp(we.H) != 0 {
				t.Fatalf("iter %d %q: safe plan H %v != enum H %v", iter, src, sp.H, we.H)
			}
		}
	}
	// Non-hierarchical and self-join queries are refused.
	d := randUDB(rng, 3, 3)
	for _, src := range []string{
		"exists x y . S(x) & S(y) & E(x,y)", // self-join
		"forall x . S(x)",                   // not conjunctive
	} {
		if _, err := SafePlan(bg, d, logic.MustParse(src, nil), Options{}); err == nil {
			t.Errorf("%q accepted by safe plan", src)
		}
	}
}

func TestWorldEnumParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	queries := []string{
		"exists x y . E(x,y) & S(x)",
		"forall x . exists y . E(x,y)",
		"exists y . E(x,y)",
	}
	for iter := 0; iter < 6; iter++ {
		d := randUDB(rng, 3, 6)
		for _, src := range queries {
			f := logic.MustParse(src, nil)
			seq, err := WorldEnum(bg, d, f, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3, 8, 100} {
				par, err := WorldEnum(bg, d, f, Options{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if par.H.Cmp(seq.H) != 0 {
					t.Fatalf("iter %d %q workers=%d: parallel H %v != sequential %v",
						iter, src, workers, par.H, seq.H)
				}
			}
		}
	}
	// Budget enforcement.
	d := randUDB(rng, 3, 6)
	if _, err := WorldEnum(bg, d, logic.MustParse("exists x . S(x)", nil), Options{MaxEnumAtoms: -1, Workers: 4}); err == nil {
		t.Error("budget not enforced")
	}
}

func TestMonteCarloRareMatchesExact(t *testing.T) {
	// Small error probabilities: the rare-event estimator must hit the
	// exact reliability with far fewer samples than the plain sampler.
	voc := rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2}, rel.RelSym{Name: "S", Arity: 1})
	s := rel.MustStructure(4, voc)
	s.MustAdd("E", 0, 1)
	s.MustAdd("E", 1, 2)
	s.MustAdd("S", 0)
	d := unreliable.New(s)
	d.MustSetError(rel.GroundAtom{Rel: "E", Args: rel.Tuple{0, 1}}, big.NewRat(1, 100))
	d.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{0}}, big.NewRat(1, 80))
	f := logic.MustParse("exists x y . E(x,y) & S(x)", nil)
	exact, err := WorldEnum(bg, d, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rare, err := MonteCarloRare(bg, d, f, Options{Eps: 0.002, Delta: 0.05, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rare.RFloat-exact.RFloat) > 0.002 {
		t.Errorf("rare %v, exact %v", rare.RFloat, exact.RFloat)
	}
	plain, err := MonteCarloDirect(bg, d, f, Options{Eps: 0.002, Delta: 0.05, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rare.Samples*20 > plain.Samples {
		t.Errorf("rare used %d samples vs plain %d; expected ≥20x saving", rare.Samples, plain.Samples)
	}
	if _, err := MonteCarloRare(bg, d, logic.MustParse("existsrel C/1 . exists x . C(x)", nil), Options{}); err == nil {
		t.Error("second-order accepted")
	}
}
