package logic

import (
	"math/rand"
	"testing"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		src  string
		want Class
	}{
		{"E(x,y) & !S(x)", ClassQuantifierFree},
		{"true", ClassQuantifierFree},
		{"x = y", ClassQuantifierFree},
		{"exists x y z . L(x,y) & R(x,z) & S(y) & S(z)", ClassConjunctive},
		{"exists x . exists y . E(x,y) & x = y", ClassConjunctive},
		{"S(0)", ClassQuantifierFree},
		{"exists x . S(x) | E(x,x)", ClassExistential},
		{"exists x y . E(x,y) & (R1(x) <-> R1(y))", ClassExistential},
		{"forall x . S(x)", ClassUniversal},
		{"!exists x . S(x)", ClassUniversal}, // NNF turns ¬∃ into ∀
		{"!forall x . S(x)", ClassExistential},
		{"forall x . exists y . E(x,y)", ClassFirstOrder},
		{"exists x . S(x) -> forall y . S(y)", ClassFirstOrder},
		{"existsrel C/1 . forall x . C(x)", ClassSecondOrder},
	}
	for _, c := range cases {
		f := MustParse(c.src, nil)
		if got := Classify(f); got != c.want {
			t.Errorf("Classify(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestIsConjunctive(t *testing.T) {
	yes := []string{
		"exists x . S(x)",
		"S(x)",
		"exists x y . E(x,y) & S(x) & S(y)",
		"exists x . exists y . (E(x,y) & S(x)) & S(y)",
	}
	no := []string{
		"exists x . S(x) | S(x)",
		"exists x . !S(x)",
		"forall x . S(x)",
		"exists x . S(x) -> S(x)",
	}
	for _, src := range yes {
		if !isConjunctive(MustParse(src, nil)) {
			t.Errorf("IsConjunctive(%q) = false", src)
		}
	}
	for _, src := range no {
		if isConjunctive(MustParse(src, nil)) {
			t.Errorf("IsConjunctive(%q) = true", src)
		}
	}
}

func TestNNFEquivalence(t *testing.T) {
	// Property: NNF preserves truth on random structures.
	rng := rand.New(rand.NewSource(321))
	for iter := 0; iter < 150; iter++ {
		s := randStructure(rng, 2+rng.Intn(3))
		f := randSentence(rng, 3, nil)
		n := NNF(f)
		v1, err1 := EvalSentence(s, f)
		v2, err2 := EvalSentence(s, n)
		if err1 != nil || err2 != nil {
			t.Fatalf("iter %d: eval errors %v %v", iter, err1, err2)
		}
		if v1 != v2 {
			t.Fatalf("iter %d: NNF changed truth of %q (nnf %q)", iter, f.String(), n.String())
		}
	}
}

func TestNNFShape(t *testing.T) {
	// NNF must not contain Implies, Iff, or Not above non-atoms.
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 100; iter++ {
		f := randSentence(rng, 4, nil)
		n := NNF(f)
		walk(n, func(g Formula) bool {
			switch h := g.(type) {
			case Implies, Iff:
				t.Fatalf("NNF contains %T: %v", g, n)
			case Not:
				switch h.F.(type) {
				case Atom, Eq:
				default:
					t.Fatalf("NNF has negation above %T: %v", h.F, n)
				}
			}
			return true
		})
	}
}

func TestNNFSecondOrder(t *testing.T) {
	f := MustParse("!existsrel C/1 . exists x . C(x)", nil)
	n := NNF(f)
	so, ok := n.(SOQuant)
	if !ok || so.Exists {
		t.Fatalf("NNF(!existsrel ...) = %v, want forallrel", n)
	}
	if _, ok := so.Body.(Forall); !ok {
		t.Errorf("inner quantifier not dualized: %v", n)
	}
}

func TestAtomCount(t *testing.T) {
	f := MustParse("exists x . E(x,x) & (S(x) | x = 0)", nil)
	if got := atomCount(f); got != 3 {
		t.Errorf("AtomCount = %d, want 3", got)
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{
		ClassQuantifierFree: "quantifier-free",
		ClassConjunctive:    "conjunctive",
		ClassExistential:    "existential",
		ClassUniversal:      "universal",
		ClassFirstOrder:     "first-order",
		ClassSecondOrder:    "second-order",
		Class(99):           "Class(99)",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
}

// atomCount returns the number of atom occurrences (relational and
// equality) in f. The paper's n(ψ) — the fixed number of propositional
// variables of a quantifier-free query — is bounded by this count.
func atomCount(f Formula) int {
	count := 0
	walk(f, func(g Formula) bool {
		switch g.(type) {
		case Atom, Eq:
			count++
		}
		return true
	})
	return count
}
