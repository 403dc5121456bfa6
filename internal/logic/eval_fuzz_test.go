package logic

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// FuzzEval holds the prepared walker to refEval, the substitution
// semantics, on generated formulas — shadowing quantifier blocks,
// constants, elements outside the universe, unknown relations, arity
// mismatches and second-order blocks that reuse or shadow a relation
// name — over small generated structures and environments. Values and
// error texts must agree.
func FuzzEval(f *testing.F) {
	for _, seed := range []string{
		"", "\x08\x01\x04\x00\x00\x01", "\x0a\x01\x08\x00\x01\x01\x02\x00",
		"\x03\x08\x00\x00\x01\x04\x01\x02", "\x0b\x0a\x00\x01\x09\x01\x02\x01\x02\x03\x07\x05",
		"\x09\x0a\x01\x00\x0a\x01\x00\x01\x02\x03\x04\x05\x06\x07",
	} {
		f.Add([]byte(seed), []byte("\x03\x05\x11\x07\x02\x01\x00\x02"))
	}
	f.Fuzz(func(t *testing.T, form, world []byte) {
		s, env := genStructure(&gen{b: world})
		q := (&gen{b: form}).formula(4)
		got, err := Eval(s, q, env)
		sub := map[string]Term{}
		for v, e := range env {
			sub[v] = Elem(e)
		}
		want, wantErr := refEval(s, Substitute(q, sub), nil)
		switch {
		case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
			t.Fatalf("%v on %v under %v: error %v, reference %v", q, s, env, err, wantErr)
		case err == nil && got != want:
			t.Fatalf("%v on %v under %v: %v, reference %v", q, s, env, got, want)
		}
	})
}

// refEval is the substitution semantics: a quantifier instantiates its
// first variable with each Elem term in turn, a second-order quantifier
// installs each relation in a copy of the structure, and atoms are
// checked ground with Structure.Holds — no environment, no slots. so
// holds the relation variables in scope.
func refEval(s *rel.Structure, f Formula, so map[string]bool) (bool, error) {
	switch g := f.(type) {
	case Bool:
		return bool(g), nil
	case Atom:
		t, err := refTerms(s, g.Args...)
		r := s.Rel(g.Rel)
		switch {
		case err != nil:
			return false, err
		case r == nil:
			return false, fmt.Errorf("logic: unknown relation %q", g.Rel)
		case r.Arity != len(t) && so[g.Rel]:
			return false, fmt.Errorf("logic: relation variable %s used with arity %d, bound with %d", g.Rel, len(t), r.Arity)
		case r.Arity != len(t):
			return false, fmt.Errorf("logic: relation %s has arity %d, used with %d args", g.Rel, r.Arity, len(t))
		}
		return s.Holds(g.Rel, t), nil
	case Eq:
		t, err := refTerms(s, g.L, g.R)
		return err == nil && t[0] == t[1], err
	case Not:
		v, err := refEval(s, g.F, so)
		return !v, err
	case And, Or:
		or := false
		kids, ok := g.(And)
		if !ok {
			or, kids = true, And(g.(Or))
		}
		for _, h := range kids {
			if v, err := refEval(s, h, so); err != nil || v == or {
				return v, err
			}
		}
		return !or, nil
	case Implies:
		return refEval(s, Or{Not{g.L}, g.R}, so)
	case Iff:
		l, err := refEval(s, g.L, so)
		if err != nil {
			return false, err
		}
		r, err := refEval(s, g.R, so)
		return l == r, err
	case Exists:
		return refQuant(s, g.Vars, g.Body, true, so)
	case Forall:
		return refQuant(s, g.Vars, g.Body, false, so)
	case SOQuant:
		if g.Arity < 0 || g.Arity > rel.MaxArity {
			return false, fmt.Errorf("logic: second-order arity %d out of range", g.Arity)
		}
		var tuples []rel.Tuple
		rel.ForEachTuple(s.N, g.Arity, func(t rel.Tuple) bool { tuples = append(tuples, t.Clone()); return true })
		switch {
		case len(tuples) > MaxSOTuples:
			return false, fmt.Errorf("logic: second-order quantifier over %s/%d: tuple space %d exceeds budget %d", g.Rel, g.Arity, len(tuples), MaxSOTuples)
		case so[g.Rel]:
			return false, fmt.Errorf("logic: nested second-order quantifiers reuse relation variable %q", g.Rel)
		}
		inner := map[string]bool{g.Rel: true}
		for name := range so {
			inner[name] = true
		}
		for mask := 0; mask < 1<<len(tuples); mask++ {
			c := *s
			c.Rels = map[string]*rel.Relation{g.Rel: rel.NewRelation(g.Arity)}
			for name, r := range s.Rels {
				if name != g.Rel {
					c.Rels[name] = r
				}
			}
			for i, t := range tuples {
				if mask>>i&1 == 1 {
					c.Rels[g.Rel].Add(t)
				}
			}
			if v, err := refEval(&c, g.Body, inner); err != nil || v == g.Exists {
				return v, err
			}
		}
		return !g.Exists, nil
	}
	return false, fmt.Errorf("logic: unknown formula node %T", f)
}

// refQuant instantiates the first variable of a quantifier block and
// quantifies the rest.
func refQuant(s *rel.Structure, vars []string, body Formula, existential bool, so map[string]bool) (bool, error) {
	if len(vars) == 0 {
		return refEval(s, body, so)
	}
	rest := Formula(Forall{Vars: vars[1:], Body: body})
	if existential {
		rest = Exists{Vars: vars[1:], Body: body}
	}
	for e := 0; e < s.N; e++ {
		if v, err := refEval(s, Substitute(rest, map[string]Term{vars[0]: Elem(e)}), so); err != nil || v == existential {
			return v, err
		}
	}
	return !existential, nil
}

func refTerms(s *rel.Structure, ts ...Term) (rel.Tuple, error) {
	out := make(rel.Tuple, len(ts))
	for i, t := range ts {
		switch u := t.(type) {
		case Elem:
			if u < 0 || int(u) >= s.N {
				return nil, fmt.Errorf("logic: element %d outside universe [0,%d)", int(u), s.N)
			}
			out[i] = int(u)
		case Const:
			e, ok := s.Consts[string(u)]
			if !ok {
				return nil, fmt.Errorf("logic: unknown constant %q", u)
			}
			out[i] = e
		default:
			return nil, fmt.Errorf("logic: unbound variable %q", u)
		}
	}
	return out, nil
}

// gen draws choices from fuzz bytes, reading zeros once they run out.
type gen struct{ b []byte }

func (g *gen) pick(k int) int {
	if len(g.b) == 0 {
		return 0
	}
	v := int(g.b[0]) % k
	g.b = g.b[1:]
	return v
}

// genStructure builds a structure over E/2, S/1 and a constant c with
// a universe of at most three elements, and an environment binding
// some of x, y and z.
func genStructure(g *gen) (*rel.Structure, Env) {
	voc := rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2}, rel.RelSym{Name: "S", Arity: 1})
	if err := voc.AddConst("c"); err != nil {
		panic(err)
	}
	n := g.pick(4)
	s := rel.MustStructure(n, voc)
	rel.ForEachTuple(n, 2, func(t rel.Tuple) bool {
		if g.pick(2) == 1 {
			s.MustAdd("E", t...)
		}
		return true
	})
	for e := 0; e < n; e++ {
		if g.pick(2) == 1 {
			s.MustAdd("S", e)
		}
	}
	env := Env{}
	if n > 0 {
		if err := s.SetConst("c", g.pick(n)); err != nil {
			panic(err)
		}
		for _, v := range []string{"x", "y", "z"} {
			if g.pick(3) > 0 {
				env[v] = g.pick(n)
			}
		}
	}
	return s, env
}

var genVars = []string{"x", "y", "z"}

func (g *gen) term() Term {
	switch g.pick(6) {
	case 0:
		return Const("c")
	case 1:
		return Elem(g.pick(5) - 1)
	default:
		return Var(genVars[g.pick(3)])
	}
}

func (g *gen) terms(n int) []Term {
	out := make([]Term, n)
	for i := range out {
		out[i] = g.term()
	}
	return out
}

func (g *gen) formula(depth int) Formula {
	k := g.pick(12)
	if depth == 0 {
		k %= 3
	}
	switch k {
	case 0:
		return Bool(g.pick(2) == 1)
	case 1:
		// Mostly well-formed atoms; sometimes an unknown relation or
		// one argument too many.
		names, arities := []string{"E", "S", "C", "D", "X"}, []int{2, 1, 1, 0, 1}
		i := g.pick(len(names))
		return Atom{Rel: names[i], Args: g.terms(arities[i] + g.pick(6)/5)}
	case 2:
		return Eq{L: g.term(), R: g.term()}
	case 3:
		return Not{F: g.formula(depth - 1)}
	case 4:
		return And{g.formula(depth - 1), g.formula(depth - 1)}
	case 5:
		return Or{g.formula(depth - 1), g.formula(depth - 1)}
	case 6:
		return Implies{L: g.formula(depth - 1), R: g.formula(depth - 1)}
	case 7:
		return Iff{L: g.formula(depth - 1), R: g.formula(depth - 1)}
	case 8, 9:
		vars := make([]string, 1+g.pick(2))
		for i := range vars {
			vars[i] = genVars[g.pick(3)]
		}
		if k == 8 {
			return Exists{Vars: vars, Body: g.formula(depth - 1)}
		}
		return Forall{Vars: vars, Body: g.formula(depth - 1)}
	case 10:
		// C/1 and D/0 are the relation variables; S/1 shadows the
		// vocabulary relation.
		names, arities := []string{"C", "D", "S"}, []int{1, 0, 1}
		i := g.pick(len(names))
		return SOQuant{Exists: g.pick(2) == 1, Rel: names[i], Arity: arities[i], Body: g.formula(depth - 1)}
	default:
		return And{g.formula(depth - 1), g.formula(depth - 1), g.formula(depth - 1)}
	}
}

// TestPreparedSharedAcrossGoroutines is the lane-sharing pattern of
// the mean kernels: one Prepared, eight goroutines, each evaluating its
// own stream of worlds in its own world buffer. Every answer must
// equal the one computed sequentially.
func TestPreparedSharedAcrossGoroutines(t *testing.T) {
	db, err := unreliable.ParseDB(strings.NewReader(`universe 4
rel E/2
rel S/1
E 0 1 err 1/4
E 1 2 err 1/2
E 2 3 err 1/3
E 3 0
E 1 3 err 2/3
S 0 err 1/2
S 2
S 3 err 1/5
`))
	if err != nil {
		t.Fatal(err)
	}
	q := MustParse("exists y . E(x,y) & (S(y) | existsrel C/1 . C(y) & !C(x) & forall z . E(z,y) -> C(z))", db.A.Voc)
	p := Prepare(q)
	const lanes, worlds = 8, 64
	u := db.NumUncertain()
	answers := func(buf *unreliable.WorldBuf, lane int) ([]bool, error) {
		var out []bool
		cols := make([]uint64, u)
		for w := 0; w < worlds; w++ {
			mask := uint64(lane*worlds+w) % (1 << uint(u))
			for i := range cols {
				cols[i] = mask >> uint(i) & 1
			}
			if err := p.Truths(buf.Load(cols, 0), func(_ int, v bool) { out = append(out, v) }); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	want := make([][]bool, lanes)
	for l := range want {
		if want[l], err = answers(db.NewWorldBuf(), l); err != nil {
			t.Fatal(err)
		}
	}
	got := make([][]bool, lanes)
	errs := make([]error, lanes)
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			got[l], errs[l] = answers(db.NewWorldBuf(), l)
		}(l)
	}
	wg.Wait()
	for l := range got {
		if errs[l] != nil {
			t.Fatalf("lane %d: %v", l, errs[l])
		}
		if fmt.Sprint(got[l]) != fmt.Sprint(want[l]) {
			t.Errorf("lane %d: concurrent answers %v, sequential %v", l, got[l], want[l])
		}
	}
}
