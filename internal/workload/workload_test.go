package workload

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"qrel/internal/core"
	"qrel/internal/logic"
	"qrel/internal/metafinite"
)

func TestRandomUDBDeterminism(t *testing.T) {
	a := RandomUDB(rand.New(rand.NewSource(1)), 5, 4)
	b := RandomUDB(rand.New(rand.NewSource(1)), 5, 4)
	if !a.A.Equal(b.A) {
		t.Error("structures differ under the same seed")
	}
	if a.NumUncertain() != b.NumUncertain() {
		t.Error("uncertainty differs under the same seed")
	}
	c := RandomUDB(rand.New(rand.NewSource(2)), 5, 4)
	if a.A.Equal(c.A) {
		t.Error("different seeds produced identical structures (suspicious)")
	}
	if err := a.ValidateWorldProbabilities(10); err != nil {
		t.Error(err)
	}
}

func TestAddUncertaintyClampsToVocabulary(t *testing.T) {
	// A 2-element graph structure has only 2² + 2 = 6 distinct ground
	// atoms. Asking for more used to rejection-sample forever; now the
	// count clamps to the vocabulary total.
	rng := rand.New(rand.NewSource(8))
	s := RandomStructure(rng, 2, 0.5, 0.5)
	db := AddUncertainty(rng, s, 1000, 10)
	if got := db.NumUncertain(); got != 6 {
		t.Errorf("NumUncertain = %d, want all 6 ground atoms", got)
	}
	// Sane requests are unaffected.
	db = AddUncertainty(rng, RandomStructure(rng, 4, 0.5, 0.5), 5, 10)
	if got := db.NumUncertain(); got != 5 {
		t.Errorf("NumUncertain = %d, want 5", got)
	}
}

func TestRandomKDNFShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := RandomKDNF(rng, 20, 15, 3)
	if len(d.Terms) != 15 {
		t.Errorf("terms %d", len(d.Terms))
	}
	for _, tm := range d.Terms {
		if len(tm) != 3 {
			t.Errorf("term width %d, want 3", len(tm))
		}
		seen := map[int]bool{}
		for _, l := range tm {
			if seen[l.Var] {
				t.Error("duplicate variable inside term")
			}
			seen[l.Var] = true
		}
	}
	// k > numVars clamps.
	d = RandomKDNF(rng, 2, 3, 5)
	if d.Width() > 2 {
		t.Error("width not clamped")
	}
}

func TestSparseKDNFIsPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := SparseKDNF(rng, 30, 10, 4)
	for _, tm := range d.Terms {
		for _, l := range tm {
			if l.Neg {
				t.Fatal("sparse kDNF must be positive")
			}
		}
		if len(tm) != 4 {
			t.Fatalf("term width %d", len(tm))
		}
	}
}

func TestRandomProbsRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := RandomProbs(rng, 10, 7)
	if err := p.Validate(10); err != nil {
		t.Fatal(err)
	}
	one := big.NewRat(1, 1)
	for _, pr := range p {
		if pr.Sign() == 0 || pr.Cmp(one) >= 0 {
			t.Errorf("probability %v at boundary", pr)
		}
	}
}

func TestCensusDB(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	db, err := CensusDB(rng, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if db.A.N != 11 {
		t.Errorf("universe %d", db.A.N)
	}
	// Every person lives somewhere.
	livesIn := db.A.Rel("LivesIn")
	if livesIn.Len() != 8 {
		t.Errorf("LivesIn has %d tuples, want 8", livesIn.Len())
	}
	// All census queries parse and are answerable by some engine.
	for name, src := range CensusQueries {
		f, err := logic.Parse(src, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if db.NumUncertain() <= 16 {
			if _, err := core.Reliability(context.Background(), db, f, core.Options{}); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
	if _, err := CensusDB(rng, 1, 1); err == nil {
		t.Error("tiny census accepted")
	}
}

func TestSalaryUDB(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	u, err := SalaryUDB(rng, 10, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if u.Obs.N != 10 {
		t.Errorf("universe %d", u.Obs.N)
	}
	if len(u.UncertainSites()) == 0 {
		t.Error("no uncertain salaries generated")
	}
	// The SUM query is answerable exactly when few sites are uncertain.
	if len(u.UncertainSites()) <= 12 {
		sum := metafinite.SumAgg{Var: "x", Body: metafinite.FApp{Fn: "salary", Args: []metafinite.FOTerm{metafinite.V("x")}}}
		if _, err := metafinite.WorldEnum(context.Background(), u, sum, 0); err != nil {
			t.Error(err)
		}
	}
}
