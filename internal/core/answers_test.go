package core

import (
	"math/big"
	"math/rand"
	"testing"

	"qrel/internal/logic"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

func TestPossibleCertainAnswersHand(t *testing.T) {
	// S = {0,1} with S(1) uncertain, S(2) absent-uncertain.
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})
	s := rel.MustStructure(3, voc)
	s.MustAdd("S", 0)
	s.MustAdd("S", 1)
	db := unreliable.New(s)
	db.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{1}}, big.NewRat(1, 4))
	db.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{2}}, big.NewRat(1, 4))
	f := logic.MustParse("S(x)", nil)
	am, err := PossibleCertainAnswers(bg, db, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(am.Certain) != 1 || !am.Certain[0].Equal(rel.Tuple{0}) {
		t.Errorf("certain = %v, want [(0)]", am.Certain)
	}
	if len(am.Possible) != 3 {
		t.Errorf("possible = %v, want 3 tuples", am.Possible)
	}
}

func TestPossibleCertainInclusion(t *testing.T) {
	// Property: Certain ⊆ Possible, and a tuple is certain iff its
	// per-tuple flip probability is 0 while it is observed... more
	// precisely: certain ⟺ Pr[tuple ∈ psi^B] = 1, possible ⟺ > 0;
	// cross-checked against per-tuple enumeration.
	rng := rand.New(rand.NewSource(71))
	for iter := 0; iter < 10; iter++ {
		db := randUDB(rng, 3, 4)
		f := logic.MustParse("exists y . E(x,y) & S(y)", nil)
		am, err := PossibleCertainAnswers(bg, db, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cset := map[uint64]bool{}
		for _, tp := range am.Certain {
			cset[tp.Key()] = true
		}
		pset := map[uint64]bool{}
		for _, tp := range am.Possible {
			pset[tp.Key()] = true
			if cset[tp.Key()] && !pset[tp.Key()] {
				t.Fatal("certain not possible")
			}
		}
		for k := range cset {
			if !pset[k] {
				t.Fatal("certain tuple missing from possible")
			}
		}
		// Membership probabilities by direct enumeration.
		memb := map[uint64]*big.Rat{}
		err = db.ForEachWorld(12, func(b *rel.Structure, nu *big.Rat) bool {
			ans, err := logic.Answer(b, f)
			if err != nil {
				t.Fatal(err)
			}
			for _, tp := range ans {
				if memb[tp.Key()] == nil {
					memb[tp.Key()] = new(big.Rat)
				}
				memb[tp.Key()].Add(memb[tp.Key()], nu)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		one := big.NewRat(1, 1)
		for k, p := range memb {
			if (p.Cmp(one) == 0) != cset[k] {
				t.Fatalf("iter %d: certainty mismatch for key %d (p=%v)", iter, k, p)
			}
			if (p.Sign() > 0) != pset[k] {
				t.Fatalf("iter %d: possibility mismatch for key %d", iter, k)
			}
		}
		// No phantom possible tuples.
		for k := range pset {
			if memb[k] == nil || memb[k].Sign() == 0 {
				t.Fatalf("iter %d: phantom possible tuple", iter)
			}
		}
	}
}

func TestPossibleCertainBooleanQuery(t *testing.T) {
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})
	s := rel.MustStructure(2, voc)
	s.MustAdd("S", 0)
	db := unreliable.New(s)
	f := logic.MustParse("exists x . S(x)", nil)
	am, err := PossibleCertainAnswers(bg, db, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Certainly true sentence: the empty tuple is certain.
	if len(am.Certain) != 1 || len(am.Certain[0]) != 0 {
		t.Errorf("certain = %v", am.Certain)
	}
}
