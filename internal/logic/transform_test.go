package logic

import (
	"math/rand"
	"testing"
)

func TestSubstituteBasic(t *testing.T) {
	f := MustParse("E(x,y) & S(x)", nil)
	g := Substitute(f, map[string]Term{"x": Elem(3)})
	if g.String() != "E(#3,y) & S(#3)" {
		t.Errorf("Substitute = %q", g.String())
	}
	// Bound occurrences are shadowed.
	f2 := MustParse("S(x) & exists x . S(x)", nil)
	g2 := Substitute(f2, map[string]Term{"x": Elem(0)})
	want := "S(#0) & (exists x . S(x))"
	if g2.String() != want {
		t.Errorf("Substitute = %q, want %q", g2.String(), want)
	}
}

func TestSubstituteCaptureAvoidance(t *testing.T) {
	// Substituting x ↦ y into ∃y.E(x,y) must rename the bound y.
	f := MustParse("exists y . E(x,y)", nil)
	g := Substitute(f, map[string]Term{"x": Var("y")})
	ex, ok := g.(Exists)
	if !ok {
		t.Fatalf("node %T", g)
	}
	if ex.Vars[0] == "y" {
		t.Fatalf("capture: %v", g)
	}
	// Semantically: on the path graph, ∃y.E(x,y) with x := y means
	// "y has a successor" — evaluate both readings to confirm the rename
	// preserved meaning.
	s := pathGraph(3)
	for e := 0; e < 3; e++ {
		got, err := Eval(s, g, Env{"y": e})
		if err != nil {
			t.Fatal(err)
		}
		want := e < 2 // 0 and 1 have successors
		if got != want {
			t.Errorf("elem %d: %v, want %v", e, got, want)
		}
	}
}

func TestSubstitutePreservesEvalOnFreshTerm(t *testing.T) {
	// Property: substituting x ↦ #e and evaluating equals evaluating with
	// env x = e.
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 80; iter++ {
		s := randStructure(rng, 2+rng.Intn(3))
		// Random formula with one free variable x: bind a random sentence
		// shape by injecting x at the leaves via scope trick.
		f := randSentence(rng, 3, []string{"x"})
		e := rng.Intn(s.N)
		want, err := Eval(s, f, Env{"x": e})
		if err != nil {
			t.Fatal(err)
		}
		g := Substitute(f, map[string]Term{"x": Elem(e)})
		if len(FreeVars(g)) != 0 {
			t.Fatalf("iter %d: substitution left free vars %v in %q", iter, FreeVars(g), g)
		}
		got, err := EvalSentence(s, g)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("iter %d: substitution changed truth of %q", iter, f.String())
		}
	}
}

func TestPrenexShape(t *testing.T) {
	f := MustParse("(exists x . S(x)) & (forall y . E(y,y) | exists z . S(z))", nil)
	p, err := prenex(f)
	if err != nil {
		t.Fatal(err)
	}
	// Matrix below the quantifier prefix must be quantifier-free.
	body := p
	depth := 0
	for {
		switch g := body.(type) {
		case Exists:
			body = g.Body
			depth++
			continue
		case Forall:
			body = g.Body
			depth++
			continue
		}
		break
	}
	if depth != 3 {
		t.Errorf("prefix has %d quantifiers, want 3 (%q)", depth, p)
	}
	if !IsQuantifierFree(body) {
		t.Errorf("matrix not quantifier-free: %q", body)
	}
}

func TestPrenexPreservesEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 120; iter++ {
		s := randStructure(rng, 2+rng.Intn(3))
		f := randSentence(rng, 3, nil)
		p, err := prenex(f)
		if err != nil {
			t.Fatal(err)
		}
		v1, err := EvalSentence(s, f)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := EvalSentence(s, p)
		if err != nil {
			t.Fatalf("iter %d: eval prenex %q: %v", iter, p, err)
		}
		if v1 != v2 {
			t.Fatalf("iter %d: Prenex changed truth of %q (prenex %q)", iter, f.String(), p.String())
		}
	}
}

func TestPrenexPreservesFreeVariables(t *testing.T) {
	f := MustParse("S(w) & exists y . E(w,y)", nil)
	p, err := prenex(f)
	if err != nil {
		t.Fatal(err)
	}
	fv := FreeVars(p)
	if len(fv) != 1 || fv[0] != "w" {
		t.Errorf("FreeVars(prenex) = %v", fv)
	}
}

func TestPrenexRejectsSecondOrder(t *testing.T) {
	f := MustParse("existsrel C/1 . exists x . C(x)", nil)
	if _, err := prenex(f); err == nil {
		t.Error("second-order accepted")
	}
}

func TestPrenexStandardizesApart(t *testing.T) {
	// The same bound name in sibling scopes must not collide after
	// pulling.
	f := MustParse("(exists x . S(x)) & (exists x . E(x,x))", nil)
	p, err := prenex(f)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	body := p
	for {
		switch g := body.(type) {
		case Exists:
			for _, v := range g.Vars {
				names[v]++
			}
			body = g.Body
			continue
		case Forall:
			for _, v := range g.Vars {
				names[v]++
			}
			body = g.Body
			continue
		}
		break
	}
	if len(names) != 2 {
		t.Fatalf("prefix names %v, want 2 distinct", names)
	}
	for n, c := range names {
		if c != 1 {
			t.Errorf("bound name %q used %d times", n, c)
		}
	}
	// And evaluation is preserved.
	s := pathGraph(3)
	v1, _ := EvalSentence(s, f)
	v2, _ := EvalSentence(s, p)
	if v1 != v2 {
		t.Error("standardizing changed truth")
	}
}
