package logic

import (
	"math/rand"
	"strings"
	"testing"

	"qrel/internal/rel"
)

// pathGraph returns a structure over {0..n-1} with E the directed path
// 0→1→...→n-1 and S = {0}.
func pathGraph(n int) *rel.Structure {
	voc := rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2}, rel.RelSym{Name: "S", Arity: 1})
	s := rel.MustStructure(n, voc)
	for i := 0; i+1 < n; i++ {
		s.MustAdd("E", i, i+1)
	}
	s.MustAdd("S", 0)
	return s
}

func TestEvalAtomsAndConnectives(t *testing.T) {
	s := pathGraph(4)
	cases := []struct {
		src  string
		want bool
	}{
		{"E(0,1)", true},
		{"E(1,0)", false},
		{"S(0)", true},
		{"S(3)", false},
		{"!E(1,0)", true},
		{"E(0,1) & E(1,2)", true},
		{"E(0,1) & E(2,1)", false},
		{"E(2,1) | E(1,2)", true},
		{"E(2,1) -> E(9,9)", true}, // won't evaluate RHS: vacuous implication short-circuits before range error
		{"E(0,1) <-> E(1,2)", true},
		{"E(0,1) <-> E(1,0)", false},
		{"0 = 0", true},
		{"0 = 1", false},
		{"0 != 1", true},
		{"true", true},
		{"false | true", true},
	}
	for _, c := range cases {
		f, err := Parse(c.src, nil)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		got, err := EvalSentence(s, f)
		if err != nil {
			t.Fatalf("Eval(%q): %v", c.src, err)
		}
		if got != c.want {
			t.Errorf("Eval(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestEvalQuantifiers(t *testing.T) {
	s := pathGraph(4)
	cases := []struct {
		src  string
		want bool
	}{
		{"exists x . S(x)", true},
		{"forall x . S(x)", false},
		{"exists x y . E(x,y)", true},
		{"forall x . exists y . E(x,y)", false}, // 3 has no successor
		{"exists x . forall y . !E(y,x)", true}, // 0 has no predecessor
		{"forall x y . E(x,y) -> !E(y,x)", true},
		{"exists x y z . E(x,y) & E(y,z)", true},
	}
	for _, c := range cases {
		f := MustParse(c.src, nil)
		got, err := EvalSentence(s, f)
		if err != nil {
			t.Fatalf("Eval(%q): %v", c.src, err)
		}
		if got != c.want {
			t.Errorf("Eval(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	s := pathGraph(3)
	bad := []string{
		"X(0)",   // unknown relation
		"E(0)",   // wrong arity
		"E(x,x)", // unbound variable
		"S(c)",   // unknown constant
		"S(#7)",  // element outside universe
	}
	for _, src := range bad {
		f := MustParse(src, nil)
		if _, err := EvalSentence(s, f); err == nil {
			t.Errorf("Eval(%q): expected error", src)
		}
	}
}

func TestEvalConstants(t *testing.T) {
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})
	voc.AddConst("c")
	s := rel.MustStructure(3, voc)
	s.MustAdd("S", 2)
	s.SetConst("c", 2)
	f := MustParse("S(c)", voc)
	got, err := EvalSentence(s, f)
	if err != nil || !got {
		t.Errorf("S(c) = %v, %v; want true", got, err)
	}
	// A quantified variable shadows the constant.
	f2 := MustParse("forall c . S(c)", voc)
	got2, err := EvalSentence(s, f2)
	if err != nil || got2 {
		t.Errorf("forall c . S(c) = %v, %v; want false", got2, err)
	}
}

// TestEvalConstantOutsideUniverse: a constant written into Consts
// directly, past SetConst's range check, holds in no relation — on a
// dense relation its rank must not alias a stored tuple, just as its
// key matches none in a hash set.
func TestEvalConstantOutsideUniverse(t *testing.T) {
	voc := rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2})
	voc.AddConst("c")
	s := rel.MustStructure(4, voc)
	s.MustAdd("E", 1, 0) // rank 4, the rank (0, c) computes
	s.Consts["c"] = 4
	if got, err := EvalSentence(s, MustParse("E(0,c)", voc)); err != nil || got {
		t.Errorf("E(0,c) with c = 4 over n = 4 = %v, %v; want false", got, err)
	}
	sparse := rel.NewRelation(2)
	sparse.Add(rel.Tuple{1, 0})
	s.Rels["E"] = sparse
	if got, err := EvalSentence(s, MustParse("E(1,0) & !E(0,c)", voc)); err != nil || !got {
		t.Errorf("on a hash set: E(1,0) & !E(0,c) = %v, %v; want true", got, err)
	}
}

func TestAnswer(t *testing.T) {
	s := pathGraph(4)
	f := MustParse("exists y . E(x,y)", nil)
	ans, err := Answer(s, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 3 {
		t.Fatalf("answer %v, want 3 tuples", ans)
	}
	// Sentence answers: one empty tuple when true, none when false.
	ansT, _ := Answer(s, MustParse("exists x . S(x)", nil))
	if len(ansT) != 1 || len(ansT[0]) != 0 {
		t.Errorf("sentence true answer = %v", ansT)
	}
	ansF, _ := Answer(s, MustParse("forall x . S(x)", nil))
	if len(ansF) != 0 {
		t.Errorf("sentence false answer = %v", ansF)
	}
}

func TestSecondOrderEval(t *testing.T) {
	// 2-colourability of a path: true; of a triangle: false.
	twoCol := "existsrel C/1 . forall x y . E(x,y) -> ((C(x) & !C(y)) | (!C(x) & C(y)))"
	f := MustParse(twoCol, nil)

	path := pathGraph(4)
	got, err := EvalSentence(path, f)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("path should be 2-colourable")
	}

	voc := rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2})
	tri := rel.MustStructure(3, voc)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}} {
		tri.MustAdd("E", e[0], e[1])
		tri.MustAdd("E", e[1], e[0])
	}
	got, err = EvalSentence(tri, f)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("triangle should not be 2-colourable")
	}

	// Universal SO quantifier: every unary relation contains no element of
	// the empty universe part — trivially true statement.
	all := MustParse("forallrel U/1 . forall x . U(x) -> U(x)", nil)
	got, err = EvalSentence(tri, all)
	if err != nil || !got {
		t.Errorf("forallrel tautology = %v, %v", got, err)
	}
}

func TestSecondOrderBudget(t *testing.T) {
	s := pathGraph(6) // 6^2 = 36 > MaxSOTuples
	f := MustParse("existsrel R/2 . exists x y . R(x,y)", nil)
	if _, err := EvalSentence(s, f); err == nil {
		t.Error("SO budget not enforced")
	}
	// Arity out of range.
	g := SOQuant{Exists: true, Rel: "R", Arity: rel.MaxArity + 1, Body: Bool(true)}
	if _, err := EvalSentence(s, g); err == nil {
		t.Error("SO arity not validated")
	}
}

func TestFreeVars(t *testing.T) {
	f := MustParse("exists y . E(x,y) & S(z) & x = w", nil)
	got := FreeVars(f)
	want := []string{"x", "z", "w"}
	if len(got) != len(want) {
		t.Fatalf("FreeVars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FreeVars = %v, want %v", got, want)
		}
	}
	if vs := FreeVars(MustParse("forall x . S(x)", nil)); len(vs) != 0 {
		t.Errorf("sentence has free vars %v", vs)
	}
	// Same variable bound in one branch, free in another.
	f2 := MustParse("S(x) & exists x . S(x)", nil)
	if vs := FreeVars(f2); len(vs) != 1 || vs[0] != "x" {
		t.Errorf("FreeVars = %v, want [x]", vs)
	}
}

func TestParseRoundTrip(t *testing.T) {
	srcs := []string{
		"exists x y z . (L(x,y)) & (R(x,z)) & (S(y)) & (S(z))",
		"forall x . (S(x)) -> (exists y . E(x,y))",
		"!S(0)",
		"(E(x,y)) <-> (E(y,x))",
		"existsrel C/1 . forall x . (C(x)) | (!C(x))",
		"x = y",
		"true",
	}
	for _, src := range srcs {
		f, err := Parse(src, nil)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		printed := f.String()
		f2, err := Parse(printed, nil)
		if err != nil {
			t.Fatalf("reparse of %q (printed %q): %v", src, printed, err)
		}
		if f2.String() != printed {
			t.Errorf("print/parse not stable: %q -> %q", printed, f2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"E(0,1",
		"E(0,1))",
		"exists . S(x)",
		"exists x S(x)",
		"existsrel R . S(x)",
		"E(0,1) &",
		"x",
		"x =",
		"@",
		"E(0,1) - S(0)",
		"E(0,1) < S(0)",
		"#x",
		"existsrel R/x . S(0)",
	}
	for _, src := range bad {
		if _, err := Parse(src, nil); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	// & binds tighter than |, -> is right-associative and looser than |.
	f := MustParse("S(0) | S(1) & S(2) -> S(3)", nil)
	imp, ok := f.(Implies)
	if !ok {
		t.Fatalf("top node %T, want Implies", f)
	}
	or, ok := imp.L.(Or)
	if !ok || len(or) != 2 {
		t.Fatalf("LHS %T, want Or of 2", imp.L)
	}
	if _, ok := or[1].(And); !ok {
		t.Fatalf("second disjunct %T, want And", or[1])
	}
	// Right associativity of ->.
	g := MustParse("S(0) -> S(1) -> S(2)", nil)
	top := g.(Implies)
	if _, ok := top.R.(Implies); !ok {
		t.Error("-> not right-associative")
	}
	// Quantifier scope extends maximally right.
	h := MustParse("exists x . S(x) & S(0)", nil)
	ex := h.(Exists)
	if _, ok := ex.Body.(And); !ok {
		t.Error("quantifier scope did not extend over &")
	}
}

func TestWalkAndSORelNames(t *testing.T) {
	f := MustParse("existsrel C/1 . exists x . C(x) & E(x,x)", nil)
	count := 0
	walk(f, func(Formula) bool { count++; return true })
	if count != 5 { // SOQuant, Exists, And, Atom, Atom
		t.Errorf("Walk visited %d nodes, want 5", count)
	}
	names := soRelNames(f)
	if len(names) != 1 || names[0] != "C" {
		t.Errorf("SORelNames = %v", names)
	}
	// Early pruning.
	count = 0
	walk(f, func(Formula) bool { count++; return false })
	if count != 1 {
		t.Errorf("pruned Walk visited %d", count)
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		f    Formula
		want string
	}{
		{Bool(true), "true"},
		{Bool(false), "false"},
		{And{}, "true"},
		{Or{}, "false"},
		{Atom{Rel: "E", Args: []Term{Var("x"), Elem(3)}}, "E(x,#3)"},
		{Not{Eq{Var("x"), Const("c")}}, "!x = c"},
		{SOQuant{Exists: false, Rel: "R", Arity: 2, Body: Bool(true)}, "forallrel R/2 . true"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

// randSentence builds a random FO sentence over E/2, S/1 with all
// variables bound, for cross-checking evaluation strategies.
func randSentence(rng *rand.Rand, depth int, scope []string) Formula {
	if depth == 0 || (len(scope) > 0 && rng.Intn(3) == 0) {
		if len(scope) == 0 {
			return Bool(rng.Intn(2) == 0)
		}
		v := func() Term { return Var(scope[rng.Intn(len(scope))]) }
		switch rng.Intn(4) {
		case 0:
			return Atom{Rel: "S", Args: []Term{v()}}
		case 1:
			return Eq{L: v(), R: v()}
		default:
			return Atom{Rel: "E", Args: []Term{v(), v()}}
		}
	}
	switch rng.Intn(6) {
	case 0:
		return Not{randSentence(rng, depth-1, scope)}
	case 1:
		return And{randSentence(rng, depth-1, scope), randSentence(rng, depth-1, scope)}
	case 2:
		return Or{randSentence(rng, depth-1, scope), randSentence(rng, depth-1, scope)}
	case 3:
		return Implies{randSentence(rng, depth-1, scope), randSentence(rng, depth-1, scope)}
	default:
		name := "v" + string(rune('a'+len(scope)))
		inner := randSentence(rng, depth-1, append(scope, name))
		if rng.Intn(2) == 0 {
			return Exists{Vars: []string{name}, Body: inner}
		}
		return Forall{Vars: []string{name}, Body: inner}
	}
}

func randStructure(rng *rand.Rand, n int) *rel.Structure {
	voc := rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2}, rel.RelSym{Name: "S", Arity: 1})
	s := rel.MustStructure(n, voc)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Intn(3) == 0 {
				s.MustAdd("E", i, j)
			}
		}
		if rng.Intn(2) == 0 {
			s.MustAdd("S", i)
		}
	}
	return s
}

func TestParsePrintEvalAgree(t *testing.T) {
	// Property: printing then reparsing preserves evaluation.
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 120; iter++ {
		s := randStructure(rng, 2+rng.Intn(3))
		f := randSentence(rng, 3, nil)
		v1, err := EvalSentence(s, f)
		if err != nil {
			t.Fatalf("iter %d: eval: %v", iter, err)
		}
		f2, err := Parse(f.String(), nil)
		if err != nil {
			t.Fatalf("iter %d: reparse %q: %v", iter, f.String(), err)
		}
		v2, err := EvalSentence(s, f2)
		if err != nil {
			t.Fatalf("iter %d: eval reparsed: %v", iter, err)
		}
		if v1 != v2 {
			t.Fatalf("iter %d: %q evaluates differently after round trip", iter, f.String())
		}
	}
}

func TestParseKeywordsNotAtoms(t *testing.T) {
	// "exists" as relation name would be ambiguous; ensure keyword wins
	// and a sensible error results.
	if _, err := Parse("exists(x)", nil); err == nil {
		t.Error("Parse(\"exists(x)\") should fail: keyword")
	}
	// But "existsx" is a normal identifier.
	f, err := Parse("existsx(0)", nil)
	if err != nil {
		t.Fatalf("identifier starting with keyword: %v", err)
	}
	if a, ok := f.(Atom); !ok || a.Rel != "existsx" {
		t.Errorf("parsed %v", f)
	}
}

func TestParseWhitespaceRobust(t *testing.T) {
	f1 := MustParse("exists x.S(x)&E(x,x)", nil)
	f2 := MustParse("  exists   x .\tS( x ) & E(x , x)  ", nil)
	if f1.String() != f2.String() {
		t.Errorf("whitespace changed parse: %q vs %q", f1.String(), f2.String())
	}
}

func TestNonFOQueryStrings(t *testing.T) {
	// The paper's running queries parse and classify as expected.
	mon2sat := "exists x y z . L(x,y) & R(x,z) & S(y) & S(z)"
	if got := Classify(MustParse(mon2sat, nil)); got != ClassConjunctive {
		t.Errorf("Classify(%q) = %v, want conjunctive", mon2sat, got)
	}
	fourCol := "exists x y . E(x,y) & (R1(x) <-> R1(y)) & (R2(x) <-> R2(y))"
	if got := Classify(MustParse(fourCol, nil)); got != ClassExistential {
		t.Errorf("Classify(%q) = %v, want existential", fourCol, got)
	}
	if !strings.Contains(MustParse(fourCol, nil).String(), "<->") {
		t.Error("printer lost <->")
	}
}

// soRelNames returns the names of second-order relation variables bound
// anywhere in f.
func soRelNames(f Formula) []string {
	var out []string
	walk(f, func(g Formula) bool {
		if q, ok := g.(SOQuant); ok {
			out = append(out, q.Rel)
		}
		return true
	})
	return out
}
