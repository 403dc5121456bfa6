package logic

import (
	"testing"

	"qrel/internal/rel"
)

// pinStructure is the structure of the evaluation pin table: the path
// 0→1→…→n-1 with a self-loop at 2 (when 2 < n), S = {0} and the
// constant c interpreted as 2 (0 on an empty universe).
func pinStructure(n int) *rel.Structure {
	voc := rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2}, rel.RelSym{Name: "S", Arity: 1})
	if err := voc.AddConst("c"); err != nil {
		panic(err)
	}
	s := rel.MustStructure(n, voc)
	for i := 0; i+1 < n; i++ {
		s.MustAdd("E", i, i+1)
	}
	if n > 2 {
		s.MustAdd("E", 2, 2)
		if err := s.SetConst("c", 2); err != nil {
			panic(err)
		}
	}
	if n > 0 {
		s.MustAdd("S", 0)
	}
	return s
}

// TestEvalPinnedSemantics pins the evaluator's observable behaviour —
// the truth value, or the exact error text — on the cases a resolving
// evaluator can get wrong: lexical shadowing, constants and elements,
// lazily reported errors in evaluated and short-circuited branches,
// and second-order relation variables.
func TestEvalPinnedSemantics(t *testing.T) {
	g, empty, five := pinStructure(4), pinStructure(0), pinStructure(5)
	voc := g.Voc
	cases := []struct {
		name string
		s    *rel.Structure
		f    Formula
		env  Env
		want bool
		err  string
	}{
		// Shadowing.
		{name: "shadowed quantifiers", s: g, f: MustParse("exists x . S(x) & exists x . E(x,x)", voc), want: true},
		{name: "inner binding wins", s: g, f: MustParse("exists x . S(x) & exists x . E(x,x) & S(x)", voc), want: false},
		{name: "free var rebound inside", s: g, f: MustParse("S(x) & exists x . E(x,x)", voc), env: Env{"x": 0}, want: true},
		{name: "free var rebound inside, false", s: g, f: MustParse("S(x) & exists x . E(x,x)", voc), env: Env{"x": 1}, want: false},
		{name: "free var restored after block", s: g, f: MustParse("(exists x . E(x,x)) & S(x)", voc), env: Env{"x": 2}, want: false},
		{name: "free var restored after block, true", s: g, f: MustParse("(exists x . E(x,x)) & S(x)", voc), env: Env{"x": 0}, want: true},
		{name: "repeated var in one block", s: g, f: Exists{Vars: []string{"x", "x"}, Body: MustParse("E(x,x)", voc)}, want: true},
		{name: "two free vars", s: g, f: MustParse("E(x,y) & exists x . E(y,x)", voc), env: Env{"x": 0, "y": 1}, want: true},
		{name: "env names a var that is not free", s: g, f: MustParse("exists x . S(x)", voc), env: Env{"x": 3, "z": 1}, want: true},
		// Constants and elements.
		{name: "constant", s: g, f: MustParse("E(c,c)", voc), want: true},
		{name: "quantifier shadows constant", s: g, f: MustParse("forall c . S(c)", voc), want: false},
		{name: "unknown constant", s: g, f: Atom{Rel: "S", Args: []Term{Const("d")}}, err: `logic: unknown constant "d"`},
		{name: "element", s: g, f: MustParse("E(#2,#2) & S(0)", voc), want: true},
		{name: "element out of range", s: g, f: MustParse("S(#7)", voc), err: "logic: element 7 outside universe [0,4)"},
		{name: "negative element", s: g, f: Atom{Rel: "S", Args: []Term{Elem(-1)}}, err: "logic: element -1 outside universe [0,4)"},
		{name: "element in equality", s: g, f: Eq{L: Elem(1), R: Elem(9)}, err: "logic: element 9 outside universe [0,4)"},
		{name: "element on empty universe", s: empty, f: MustParse("S(#0)", voc), err: "logic: element 0 outside universe [0,0)"},
		{name: "element short-circuited", s: g, f: MustParse("S(1) & S(#7)", voc), want: false},
		// Unknown relation.
		{name: "unknown relation", s: g, f: MustParse("X(0)", voc), err: `logic: unknown relation "X"`},
		{name: "unknown relation under and", s: g, f: MustParse("false & X(0)", voc), want: false},
		{name: "unknown relation under or", s: g, f: MustParse("true | X(0)", voc), want: true},
		{name: "unknown relation under implies", s: g, f: MustParse("false -> X(0)", voc), want: true},
		{name: "unknown relation under iff", s: g, f: MustParse("false <-> X(0)", voc), err: `logic: unknown relation "X"`},
		{name: "unknown relation in empty quantifier", s: empty, f: MustParse("exists x . X(x)", voc), want: false},
		{name: "term error before relation error", s: g, f: MustParse("X(y)", voc), err: `logic: unbound variable "y"`},
		// Arity mismatch.
		{name: "arity mismatch", s: g, f: MustParse("E(0)", voc), err: "logic: relation E has arity 2, used with 1 args"},
		{name: "arity mismatch short-circuited", s: g, f: MustParse("S(1) & E(0)", voc), want: false},
		{name: "arity mismatch past MaxArity", s: g, f: MustParse("S(0,0,0,0,0,0)", voc), err: "logic: relation S has arity 1, used with 6 args"},
		// Unbound variable.
		{name: "unbound variable", s: g, f: MustParse("E(x,x)", voc), err: `logic: unbound variable "x"`},
		{name: "unbound variable in equality", s: g, f: MustParse("x = 0", voc), err: `logic: unbound variable "x"`},
		{name: "unbound variable short-circuited", s: g, f: MustParse("S(1) & E(y,y)", voc), want: false},
		{name: "unbound variable under quantifier", s: g, f: MustParse("exists x . E(x,y)", voc), err: `logic: unbound variable "y"`},
		{name: "unbound variable under false guard", s: g, f: MustParse("exists x . false & E(x,y)", voc), want: false},
		// Second order.
		{name: "SO var shadows vocabulary relation", s: g, f: MustParse("existsrel S/2 . S(0,1) & !S(1,0)", voc), want: true},
		{name: "vocabulary relation after SO scope", s: g, f: MustParse("(existsrel S/2 . S(0,1)) & S(0)", voc), want: true},
		{name: "forallrel", s: g, f: MustParse("forallrel C/1 . C(0) | !C(0)", voc), want: true},
		{name: "forallrel false", s: g, f: MustParse("forallrel C/1 . exists x . C(x)", voc), want: false},
		{name: "nested distinct SO", s: g, f: MustParse("existsrel C/1 . existsrel D/1 . forall x . C(x) <-> !D(x)", voc), want: true},
		{name: "SO arity 0", s: g, f: MustParse("existsrel P/0 . P() & S(0)", voc), want: true},
		{name: "SO on empty universe", s: empty, f: MustParse("existsrel C/1 . forall x . C(x)", voc), want: true},
		{name: "SO var arity mismatch", s: g, f: MustParse("existsrel C/1 . C(0,1)", voc), err: "logic: relation variable C used with arity 2, bound with 1"},
		{name: "SO free var inside", s: g, f: MustParse("existsrel C/1 . C(x) & !C(1)", voc), env: Env{"x": 0}, want: true},
		{name: "nested SO reuse", s: g, f: MustParse("existsrel C/1 . existsrel C/1 . C(0)", voc), err: `logic: nested second-order quantifiers reuse relation variable "C"`},
		{name: "nested SO reuse short-circuited", s: g, f: MustParse("existsrel C/1 . !C(0) | (existsrel C/1 . true)", voc), want: true},
		{name: "sibling SO reuse is fine", s: g, f: MustParse("(existsrel C/1 . C(0)) & (existsrel C/1 . !C(0))", voc), want: true},
		{name: "SO budget", s: five, f: MustParse("existsrel R/2 . true", voc), err: "logic: second-order quantifier over R/2: tuple space 25 exceeds budget 22"},
		{name: "SO budget short-circuited", s: five, f: MustParse("false & (existsrel R/2 . true)", voc), want: false},
		{name: "SO budget at the limit", s: five, f: MustParse("existsrel R/1 . R(4) & !R(3)", voc), want: true},
		{name: "SO arity out of range", s: g, f: SOQuant{Exists: true, Rel: "R", Arity: rel.MaxArity + 1, Body: Bool(true)}, err: "logic: second-order arity 5 out of range"},
		// Unknown nodes.
		{name: "nil formula", s: g, f: Not{}, err: "logic: unknown formula node <nil>"},
		{name: "nil formula short-circuited", s: g, f: And{Bool(false), nil}, want: false},
		{name: "nil term", s: g, f: Atom{Rel: "S", Args: []Term{nil}}, err: "logic: unknown term <nil>"},
	}
	for _, c := range cases {
		env := c.env
		if env == nil {
			env = Env{}
		}
		got, err := Eval(c.s, c.f, env)
		switch {
		case c.err != "":
			if err == nil || err.Error() != c.err {
				t.Errorf("%s: Eval(%v) = %v, %v; want error %q", c.name, c.f, got, err, c.err)
			}
		case err != nil:
			t.Errorf("%s: Eval(%v): unexpected error %v", c.name, c.f, err)
		case got != c.want:
			t.Errorf("%s: Eval(%v) = %v, want %v", c.name, c.f, got, c.want)
		}
	}
}

// TestAnswerPinned pins Answer on free-variable queries whose
// quantifiers rebind the answer variables.
func TestAnswerPinned(t *testing.T) {
	g := pinStructure(4)
	cases := []struct {
		src  string
		want string
		err  string
	}{
		{src: "S(x) | exists x . E(x,x) & x = 3", want: "[(0)]"},
		{src: "exists y . E(x,y) & exists x . E(y,x)", want: "[(0) (1) (2)]"},
		{src: "E(x,y) & !(x = y)", want: "[(0,1) (1,2) (2,3)]"},
		{src: "existsrel C/1 . C(x) & !C(y) & E(x,y)", want: "[(0,1) (1,2) (2,3)]"},
		{src: "S(x) & X(x)", err: `logic: unknown relation "X"`},
		{src: "exists x . S(x)", want: "[()]"},
		{src: "forall x . S(x)", want: "[]"},
	}
	for _, c := range cases {
		ans, err := Answer(g, MustParse(c.src, g.Voc))
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Errorf("Answer(%q) error = %v, want %q", c.src, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("Answer(%q): %v", c.src, err)
			continue
		}
		got := "["
		for i, tu := range ans {
			if i > 0 {
				got += " "
			}
			got += tu.String()
		}
		got += "]"
		if got != c.want {
			t.Errorf("Answer(%q) = %s, want %s", c.src, got, c.want)
		}
	}
}
