package core

import (
	"math/big"
	"math/rand"
	"testing"

	"qrel/internal/logic"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

func TestAtomSensitivityHand(t *testing.T) {
	// Query ∃x S(x) on S = {0} with S(0) uncertain at mu = 1/4 and S(1)
	// uncertain at mu = 1/2. Observed: true.
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})
	s := rel.MustStructure(2, voc)
	s.MustAdd("S", 0)
	db := unreliable.New(s)
	a0 := rel.GroundAtom{Rel: "S", Args: rel.Tuple{0}}
	a1 := rel.GroundAtom{Rel: "S", Args: rel.Tuple{1}}
	db.MustSetError(a0, big.NewRat(1, 4))
	db.MustSetError(a1, big.NewRat(1, 2))
	f := logic.MustParse("exists x . S(x)", nil)

	// Conditioned on S(0)=true the query is certainly true: H = 0.
	// Conditioned on S(0)=false: query true iff S(1), so H = 1/2.
	sens, err := AtomSensitivity(bg, db, f, a0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sens.HTrue.Sign() != 0 {
		t.Errorf("H|true = %v, want 0", sens.HTrue)
	}
	if sens.HFalse.Cmp(big.NewRat(1, 2)) != 0 {
		t.Errorf("H|false = %v, want 1/2", sens.HFalse)
	}
	if sens.Spread.Cmp(big.NewRat(1, 2)) != 0 {
		t.Errorf("spread = %v, want 1/2", sens.Spread)
	}
	// Law of total probability: HResolved equals the unconditional H.
	base, err := WorldEnum(bg, db, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sens.HResolved.Cmp(base.H) != 0 {
		t.Errorf("HResolved = %v, want H = %v", sens.HResolved, base.H)
	}
}

func TestAtomSensitivityCertainAtom(t *testing.T) {
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})
	s := rel.MustStructure(2, voc)
	s.MustAdd("S", 0)
	db := unreliable.New(s)
	f := logic.MustParse("exists x . S(x)", nil)
	a := rel.GroundAtom{Rel: "S", Args: rel.Tuple{0}}
	if _, err := AtomSensitivity(bg, db, f, a, Options{}); err == nil {
		t.Error("sensitivity of a certain atom accepted")
	}
}

func TestRankSensitivities(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	db := randUDB(rng, 3, 5)
	f := logic.MustParse("exists x y . E(x,y) & S(x)", nil)
	ranked, err := RankSensitivities(bg, db, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 5 {
		t.Fatalf("ranked %d atoms, want 5", len(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i-1].Spread.Cmp(ranked[i].Spread) < 0 {
			t.Error("not sorted by decreasing spread")
		}
	}
	// Law of total probability holds for every atom.
	base, err := WorldEnum(bg, db, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ranked {
		if s.HResolved.Cmp(base.H) != 0 {
			t.Errorf("atom %v: HResolved %v != H %v", s.Atom, s.HResolved, base.H)
		}
	}
}
