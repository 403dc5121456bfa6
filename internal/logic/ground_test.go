package logic

import (
	"math/rand"
	"testing"

	"qrel/internal/prop"
	"qrel/internal/rel"
)

// observedAssignment builds the propositional assignment corresponding
// to the structure itself: variable i is true iff its ground atom holds.
func observedAssignment(s *rel.Structure, ix *AtomIndex) []bool {
	a := make([]bool, ix.Len())
	for i, atom := range ix.Atoms() {
		a[i] = s.Holds(atom.Rel, atom.Args)
	}
	return a
}

func TestGroundMatchesEval(t *testing.T) {
	// Property: grounding evaluated at the observed database agrees with
	// direct model checking, for random FO sentences and structures.
	rng := rand.New(rand.NewSource(2024))
	for iter := 0; iter < 150; iter++ {
		s := randStructure(rng, 2+rng.Intn(3))
		f := randSentence(rng, 3, nil)
		direct, err := EvalSentence(s, f)
		if err != nil {
			t.Fatalf("iter %d: eval: %v", iter, err)
		}
		ix := NewAtomIndex()
		pf, err := Ground(s, f, Env{}, ix)
		if err != nil {
			t.Fatalf("iter %d: ground: %v", iter, err)
		}
		got := pf.Eval(observedAssignment(s, ix))
		if got != direct {
			t.Fatalf("iter %d: grounding of %q disagrees with eval (%v vs %v)", iter, f.String(), got, direct)
		}
	}
}

func TestGroundFlippedWorldsMatchEval(t *testing.T) {
	// Stronger property: the grounded formula evaluates correctly on every
	// world B obtained by flipping atoms, matching Eval on the mutated
	// structure. This is exactly what the lineage is for.
	rng := rand.New(rand.NewSource(4096))
	for iter := 0; iter < 60; iter++ {
		s := randStructure(rng, 2)
		f := randSentence(rng, 3, nil)
		ix := NewAtomIndex()
		// Ground over the FULL atom space so flips are visible: allocate
		// every ground atom up front.
		s.ForEachGroundAtom(func(a rel.GroundAtom) bool {
			ix.ID(rel.GroundAtom{Rel: a.Rel, Args: a.Args.Clone()})
			return true
		})
		pf, err := Ground(s, f, Env{}, ix)
		if err != nil {
			t.Fatalf("iter %d: ground: %v", iter, err)
		}
		for world := 0; world < 16; world++ {
			b := s.Clone()
			a := make([]bool, ix.Len())
			for i, atom := range ix.Atoms() {
				a[i] = s.Holds(atom.Rel, atom.Args)
			}
			// Flip a few random atoms.
			for j := 0; j < 3; j++ {
				i := rng.Intn(ix.Len())
				atom := ix.Atom(i)
				b.Rel(atom.Rel).Toggle(atom.Args)
				a[i] = b.Holds(atom.Rel, atom.Args)
			}
			direct, err := EvalSentence(b, f)
			if err != nil {
				t.Fatalf("iter %d: eval world: %v", iter, err)
			}
			if got := pf.Eval(a); got != direct {
				t.Fatalf("iter %d world %d: lineage disagrees with eval for %q", iter, world, f.String())
			}
		}
	}
}

func TestLineageDNFWidthBound(t *testing.T) {
	// Theorem 5.4: for an existential query the lineage kDNF width is
	// bounded by the number of atoms in the matrix, independent of n.
	src := "exists x y z . L(x,y) & R(x,z) & S(y) & S(z)"
	f := MustParse(src, nil)
	voc := rel.MustVocabulary(rel.RelSym{Name: "L", Arity: 2}, rel.RelSym{Name: "R", Arity: 2}, rel.RelSym{Name: "S", Arity: 1})
	for _, n := range []int{2, 4, 6} {
		s := rel.MustStructure(n, voc)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < n; i++ {
			s.MustAdd("L", rng.Intn(n), rng.Intn(n))
			s.MustAdd("R", rng.Intn(n), rng.Intn(n))
			s.MustAdd("S", rng.Intn(n))
		}
		ix := NewAtomIndex()
		d, err := lineageDNF(s, f, Env{}, ix, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if d.Width() > 4 {
			t.Errorf("n=%d: lineage width %d exceeds atom count 4", n, d.Width())
		}
		if len(d.Terms) > n*n*n {
			t.Errorf("n=%d: %d terms exceeds n^3", n, len(d.Terms))
		}
	}
}

func TestLineageDNFEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	for iter := 0; iter < 60; iter++ {
		s := randStructure(rng, 2)
		f := randSentence(rng, 3, nil)
		ix := NewAtomIndex()
		s.ForEachGroundAtom(func(a rel.GroundAtom) bool {
			ix.ID(rel.GroundAtom{Rel: a.Rel, Args: a.Args.Clone()})
			return true
		})
		pf, err := Ground(s, f, Env{}, ix)
		if err != nil {
			t.Fatal(err)
		}
		d, err := prop.ToDNF(pf, ix.Len(), 1<<16)
		if err != nil {
			continue // blowup is acceptable for adversarial random formulas
		}
		// Check equivalence on random assignments.
		for trial := 0; trial < 40; trial++ {
			a := make([]bool, ix.Len())
			for i := range a {
				a[i] = rng.Intn(2) == 0
			}
			if pf.Eval(a) != d.Eval(a) {
				t.Fatalf("iter %d: DNF conversion changed lineage semantics", iter)
			}
		}
	}
}

func TestGroundFreeVariables(t *testing.T) {
	s := pathGraph(3)
	f := MustParse("exists y . E(x,y)", nil)
	ix := NewAtomIndex()
	// Free variable x must come from env.
	if _, err := Ground(s, f, Env{}, ix); err == nil {
		t.Error("unbound free variable accepted")
	}
	pf, err := Ground(s, f, Env{"x": 0}, ix)
	if err != nil {
		t.Fatal(err)
	}
	if !pf.Eval(observedAssignment(s, ix)) {
		t.Error("E(0,·) lineage should be true on observed db")
	}
}

func TestGroundRejectsSecondOrder(t *testing.T) {
	s := pathGraph(3)
	f := MustParse("existsrel C/1 . exists x . C(x)", nil)
	if _, err := Ground(s, f, Env{}, NewAtomIndex()); err == nil {
		t.Error("second-order grounding accepted")
	}
}

func TestAtomIndex(t *testing.T) {
	ix := NewAtomIndex()
	a := rel.GroundAtom{Rel: "E", Args: rel.Tuple{0, 1}}
	b := rel.GroundAtom{Rel: "E", Args: rel.Tuple{1, 0}}
	ia := ix.ID(a)
	ib := ix.ID(b)
	if ia == ib {
		t.Error("distinct atoms share id")
	}
	if got := ix.ID(a); got != ia {
		t.Error("re-indexing changed id")
	}
	if ix.Len() != 2 {
		t.Errorf("Len = %d", ix.Len())
	}
	if got := ix.Atom(ia); !got.Equal(a) {
		t.Errorf("Atom(%d) = %v", ia, got)
	}
	if id, ok := ix.Lookup(b); !ok || id != ib {
		t.Error("Lookup failed")
	}
	if _, ok := ix.Lookup(rel.GroundAtom{Rel: "S", Args: rel.Tuple{0}}); ok {
		t.Error("Lookup found unallocated atom")
	}
}

// lineageDNF grounds f (under env) and converts the result to a
// simplified DNF over the atom index. For an existential query ψ in the
// sense of Theorem 5.4 the result is the kDNF ψ” of the proof: its
// width is bounded by the number of atoms in the matrix, independent of
// the database size. maxTerms bounds the DNF distribution.
func lineageDNF(s *rel.Structure, f Formula, env Env, ix *AtomIndex, maxTerms int) (prop.DNF, error) {
	pf, err := Ground(s, f, env, ix)
	if err != nil {
		return prop.DNF{}, err
	}
	numVars := ix.Len()
	return prop.ToDNF(pf, numVars, maxTerms)
}
