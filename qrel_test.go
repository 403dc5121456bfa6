package qrel_test

import (
	"bytes"
	"context"
	"math/big"
	"strings"
	"testing"

	"qrel"
)

func exampleDB(t *testing.T) *qrel.DB {
	t.Helper()
	voc := qrel.MustVocabulary(
		qrel.RelSym{Name: "E", Arity: 2},
		qrel.RelSym{Name: "S", Arity: 1},
	)
	s := qrel.MustStructure(4, voc)
	s.MustAdd("E", 0, 1)
	s.MustAdd("E", 1, 2)
	s.MustAdd("S", 0)
	db := qrel.NewDB(s)
	db.MustSetError(qrel.GroundAtom{Rel: "S", Args: qrel.Tuple{0}}, big.NewRat(1, 10))
	db.MustSetError(qrel.GroundAtom{Rel: "E", Args: qrel.Tuple{1, 2}}, big.NewRat(1, 4))
	return db
}

func TestFacadeEndToEnd(t *testing.T) {
	db := exampleDB(t)
	q := qrel.MustParseQuery("exists x y . E(x,y) & S(x)", nil)
	if got := qrel.Classify(q); got != qrel.ClassConjunctive {
		t.Errorf("Classify = %v", got)
	}
	res, err := qrel.Reliability(context.Background(), db, q, qrel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Guarantee != qrel.Exact {
		t.Errorf("guarantee %v", res.Guarantee)
	}
	// Hand computation: the query holds iff S(0) (then E(0,1) works —
	// certain) or ... E(1,2)&S(1): S(1) certainly false. So nu = 9/10,
	// observed true, H = 1/10, R = 9/10.
	if res.H.Cmp(big.NewRat(1, 10)) != 0 {
		t.Errorf("H = %v, want 1/10", res.H)
	}
	if res.R.Cmp(big.NewRat(9, 10)) != 0 {
		t.Errorf("R = %v, want 9/10", res.R)
	}
}

func TestFacadeEngineSelection(t *testing.T) {
	db := exampleDB(t)
	q := qrel.MustParseQuery("exists x y . E(x,y) & S(x)", nil)
	exact, err := qrel.ReliabilityWith(context.Background(), qrel.EngineWorldEnum, db, q, qrel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bddRes, err := qrel.ReliabilityWith(context.Background(), qrel.EngineLineageBDD, db, q, qrel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if exact.H.Cmp(bddRes.H) != 0 {
		t.Error("engines disagree")
	}
}

func TestFacadePerTupleAndAbsolute(t *testing.T) {
	db := exampleDB(t)
	q := qrel.MustParseQuery("exists y . E(x,y)", nil)
	per, err := qrel.ExpectedErrorPerTuple(context.Background(), db, q, qrel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 4 {
		t.Fatalf("%d tuples", len(per))
	}
	abs, err := qrel.AbsoluteReliability(context.Background(), db, q, qrel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if abs.Reliable {
		t.Error("E(1,2) uncertainty should break absolute reliability of ∃y E(x,y)")
	}
}

func TestFacadeCodecRoundTrip(t *testing.T) {
	db := exampleDB(t)
	var buf bytes.Buffer
	if err := qrel.WriteDB(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := qrel.ParseDB(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !back.A.Equal(db.A) {
		t.Error("codec round trip changed database")
	}
}

func TestFacadeAnswer(t *testing.T) {
	db := exampleDB(t)
	q := qrel.MustParseQuery("exists y . E(x,y)", nil)
	ans, err := qrel.Answer(db.A, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 2 {
		t.Errorf("answer %v", ans)
	}
}

func TestFacadeSensitivityAndModality(t *testing.T) {
	db := exampleDB(t)
	q := qrel.MustParseQuery("exists x y . E(x,y) & S(x)", nil)
	ranked, err := qrel.RankSensitivities(context.Background(), db, q, qrel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 2 {
		t.Fatalf("ranked %d atoms", len(ranked))
	}
	one, err := qrel.AtomSensitivity(context.Background(), db, q, ranked[0].Atom, qrel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if one.Spread.Cmp(ranked[0].Spread) != 0 {
		t.Error("single-atom sensitivity differs from ranking")
	}
	am, err := qrel.PossibleCertainAnswers(context.Background(), db, q, qrel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(am.Possible) < len(am.Certain) {
		t.Error("possible smaller than certain")
	}
}

func TestFacadeRareEngine(t *testing.T) {
	db := exampleDB(t)
	q := qrel.MustParseQuery("exists x y . E(x,y) & S(x)", nil)
	exact, err := qrel.ReliabilityWith(context.Background(), qrel.EngineWorldEnum, db, q, qrel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rare, err := qrel.ReliabilityWith(context.Background(), qrel.EngineMCRare, db, q, qrel.Options{Eps: 0.02, Delta: 0.05, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if d := rare.RFloat - exact.RFloat; d > 0.02 || d < -0.02 {
		t.Errorf("rare engine %v, exact %v", rare.RFloat, exact.RFloat)
	}
	safe, err := qrel.ReliabilityWith(context.Background(), qrel.EngineSafePlan, db, q, qrel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if safe.H.Cmp(exact.H) != 0 {
		t.Error("safe plan disagrees with enumeration")
	}
}
