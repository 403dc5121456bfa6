package prop

import (
	"math/big"
	"math/rand"
	"testing"
)

// randDNF builds a random DNF with the given shape, for cross-checking
// the exact algorithms against each other.
func randDNF(rng *rand.Rand, numVars, numTerms, width int) DNF {
	d := DNF{NumVars: numVars}
	for i := 0; i < numTerms; i++ {
		w := 1 + rng.Intn(width)
		t := make(Term, 0, w)
		for j := 0; j < w; j++ {
			t = append(t, Lit{Var: rng.Intn(numVars), Neg: rng.Intn(2) == 0})
		}
		d.Terms = append(d.Terms, t)
	}
	return d
}

func randProbs(rng *rand.Rand, numVars int) ProbAssignment {
	p := make(ProbAssignment, numVars)
	for i := range p {
		p[i] = big.NewRat(int64(rng.Intn(10)), 10)
	}
	return p
}

func TestLitBasics(t *testing.T) {
	l := Pos(3)
	if l.String() != "x3" || l.Negate().String() != "!x3" {
		t.Errorf("literal rendering wrong: %v %v", l, l.Negate())
	}
	a := []bool{false, false, false, true}
	if !l.Eval(a) || l.Negate().Eval(a) {
		t.Error("literal evaluation wrong")
	}
	if Negd(0).Eval(a) != true {
		t.Error("negative literal on false var should hold")
	}
}

func TestTermNormalize(t *testing.T) {
	tm := Term{Pos(2), Pos(0), Pos(2), Negd(1)}
	nt, sat := tm.Normalize()
	if !sat {
		t.Fatal("satisfiable term reported unsat")
	}
	if len(nt) != 3 || nt[0] != Pos(0) || nt[1] != Negd(1) || nt[2] != Pos(2) {
		t.Errorf("Normalize = %v", nt)
	}
	if _, sat := (Term{Pos(0), Negd(0)}).Normalize(); sat {
		t.Error("contradictory term reported sat")
	}
	if len(tm.Vars()) != 3 {
		t.Errorf("Vars = %v", tm.Vars())
	}
}

func TestDNFEvalAndString(t *testing.T) {
	d := MustDNF(3, Term{Pos(0), Pos(1)}, Term{Negd(2)})
	cases := []struct {
		a    []bool
		want bool
	}{
		{[]bool{true, true, true}, true},
		{[]bool{false, false, true}, false},
		{[]bool{false, false, false}, true},
	}
	for _, c := range cases {
		if got := d.Eval(c.a); got != c.want {
			t.Errorf("Eval(%v) = %v, want %v", c.a, got, c.want)
		}
	}
	if got := d.String(); got != "(x0 & x1) | (!x2)" {
		t.Errorf("String = %q", got)
	}
	if (DNF{}).String() != "false" {
		t.Error("empty DNF should render false")
	}
	if (Term{}).String() != "true" {
		t.Error("empty term should render true")
	}
	if _, err := newDNF(1, Term{Pos(3)}); err == nil {
		t.Error("out-of-range literal accepted")
	}
	if d.Width() != 2 {
		t.Errorf("Width = %d", d.Width())
	}
}

func TestDNFSimplify(t *testing.T) {
	d := MustDNF(3,
		Term{Pos(0)},
		Term{Pos(0), Pos(1)},  // subsumed by {x0}
		Term{Pos(2), Negd(2)}, // contradictory
		Term{Pos(1), Pos(1)},  // duplicate literal
		Term{Negd(1), Pos(0)}, // subsumed by {x0}
	)
	s := d.Simplify()
	if len(s.Terms) != 2 {
		t.Fatalf("Simplify kept %d terms: %v", len(s.Terms), s)
	}
	// Equivalence on all assignments.
	for m := 0; m < 8; m++ {
		a := []bool{m&1 != 0, m&2 != 0, m&4 != 0}
		if d.Eval(a) != s.Eval(a) {
			t.Errorf("Simplify changed semantics at %v", a)
		}
	}
}

func TestDNFSimplifyRandomEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 100; iter++ {
		d := randDNF(rng, 6, 1+rng.Intn(8), 4)
		s := d.Simplify()
		for m := 0; m < 64; m++ {
			a := make([]bool, 6)
			for i := range a {
				a[i] = m&(1<<i) != 0
			}
			if d.Eval(a) != s.Eval(a) {
				t.Fatalf("iter %d: Simplify changed semantics of %v at %v", iter, d, a)
			}
		}
	}
}

func TestCountBruteForceSmall(t *testing.T) {
	// x0 | x1 over 2 vars has 3 models.
	d := MustDNF(2, Term{Pos(0)}, Term{Pos(1)})
	c, err := d.CountBruteForce(20)
	if err != nil {
		t.Fatal(err)
	}
	if c.Int64() != 3 {
		t.Errorf("count = %v, want 3", c)
	}
	// Tautology via empty term.
	d2 := MustDNF(3, Term{})
	c2, _ := d2.CountBruteForce(20)
	if c2.Int64() != 8 {
		t.Errorf("tautology count = %v, want 8", c2)
	}
	// Empty DNF is false.
	c3, _ := (DNF{NumVars: 3}).CountBruteForce(20)
	if c3.Int64() != 0 {
		t.Errorf("false count = %v, want 0", c3)
	}
	if _, err := (DNF{NumVars: 40}).CountBruteForce(20); err == nil {
		t.Error("budget not enforced")
	}
}

func TestCountInclusionExclusionMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 60; iter++ {
		d := randDNF(rng, 3+rng.Intn(8), 1+rng.Intn(6), 3)
		bf, err := d.CountBruteForce(12)
		if err != nil {
			t.Fatal(err)
		}
		ie, err := d.CountInclusionExclusion(12)
		if err != nil {
			t.Fatal(err)
		}
		if bf.Cmp(ie) != 0 {
			t.Fatalf("iter %d: brute force %v != inclusion-exclusion %v for %v", iter, bf, ie, d)
		}
	}
}

func TestTermSatCount(t *testing.T) {
	if TermSatCount(Term{Pos(0), Negd(1)}, 4).Int64() != 4 {
		t.Error("TermSatCount of 2-lit term over 4 vars should be 4")
	}
	if TermSatCount(Term{Pos(0), Negd(0)}, 4).Int64() != 0 {
		t.Error("contradictory term should have 0 models")
	}
	if TermSatCount(Term{Pos(0), Pos(0)}, 4).Int64() != 8 {
		t.Error("duplicate literal should fix one variable only")
	}
}

func TestProbBruteForceBasics(t *testing.T) {
	d := MustDNF(2, Term{Pos(0), Pos(1)})
	p := ProbAssignment{big.NewRat(1, 2), big.NewRat(1, 3)}
	pr, err := d.ProbBruteForce(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Cmp(big.NewRat(1, 6)) != 0 {
		t.Errorf("prob = %v, want 1/6", pr)
	}
	// Validation.
	if _, err := d.ProbBruteForce(ProbAssignment{big.NewRat(1, 2)}, 10); err == nil {
		t.Error("short assignment accepted")
	}
	if _, err := d.ProbBruteForce(ProbAssignment{big.NewRat(3, 2), big.NewRat(1, 2)}, 10); err == nil {
		t.Error("out-of-range probability accepted")
	}
}

func TestProbInclusionExclusionMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 60; iter++ {
		nv := 3 + rng.Intn(6)
		d := randDNF(rng, nv, 1+rng.Intn(6), 3)
		p := randProbs(rng, nv)
		bf, err := d.ProbBruteForce(p, 12)
		if err != nil {
			t.Fatal(err)
		}
		ie, err := d.ProbInclusionExclusion(p, 12)
		if err != nil {
			t.Fatal(err)
		}
		if bf.Cmp(ie) != 0 {
			t.Fatalf("iter %d: brute force %v != IE %v for %v", iter, bf, ie, d)
		}
	}
}

func TestUniformProbMatchesCounting(t *testing.T) {
	// Under uniform 1/2 probabilities, Prob-DNF = #DNF / 2^n.
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 40; iter++ {
		nv := 3 + rng.Intn(6)
		d := randDNF(rng, nv, 1+rng.Intn(5), 3)
		cnt, _ := d.CountBruteForce(12)
		pr, _ := d.ProbBruteForce(UniformProb(nv), 12)
		want := new(big.Rat).SetFrac(cnt, new(big.Int).Lsh(big.NewInt(1), uint(nv)))
		if pr.Cmp(want) != 0 {
			t.Fatalf("iter %d: prob %v != count ratio %v", iter, pr, want)
		}
	}
}

func TestUnionBound(t *testing.T) {
	d := MustDNF(2, Term{Pos(0)}, Term{Pos(1)})
	p := ProbAssignment{big.NewRat(1, 2), big.NewRat(1, 2)}
	ub := d.UnionBound(p)
	if ub.Cmp(big.NewRat(1, 1)) != 0 {
		t.Errorf("UnionBound = %v, want 1", ub)
	}
	exact, _ := d.ProbBruteForce(p, 10)
	if ub.Cmp(exact) < 0 {
		t.Error("union bound below exact probability")
	}
}

func TestDNFOrAndTerm(t *testing.T) {
	d := MustDNF(2, Term{Pos(0)})
	e := MustDNF(3, Term{Pos(2)})
	u := d.Or(e)
	if u.NumVars != 3 || len(u.Terms) != 2 {
		t.Errorf("Or = %v", u)
	}
	w := d.AndTerm(Term{Negd(1)})
	if len(w.Terms) != 1 || len(w.Terms[0]) != 2 {
		t.Errorf("AndTerm = %v", w)
	}
	// Conjoining a contradictory extra literal drops the term.
	w2 := d.AndTerm(Term{Negd(0)})
	if len(w2.Terms) != 0 {
		t.Errorf("contradictory AndTerm kept terms: %v", w2)
	}
}
