// Package prop implements the propositional substrate of the paper: DNF
// and CNF formulas over integer-indexed variables, exact model counting,
// exact probability computation (the problems #C and Prob-C of
// Definition 5.1), and the binary-comparison DNF constructions used in
// the proof of Theorem 5.3.
//
// Variables are identified by dense non-negative integers. An assignment
// is a []bool indexed by variable.
package prop

import (
	"fmt"
	"sort"
	"strings"
)

// Lit is a propositional literal: a variable index with an optional
// negation.
type Lit struct {
	Var int
	Neg bool
}

// Pos returns the positive literal of v.
func Pos(v int) Lit { return Lit{Var: v} }

// Negd returns the negative literal of v.
func Negd(v int) Lit { return Lit{Var: v, Neg: true} }

// Negate returns the complementary literal.
func (l Lit) Negate() Lit { return Lit{Var: l.Var, Neg: !l.Neg} }

// Eval returns the literal's truth value under the assignment.
func (l Lit) Eval(a []bool) bool { return a[l.Var] != l.Neg }

// String renders the literal as "x3" or "!x3".
func (l Lit) String() string {
	if l.Neg {
		return fmt.Sprintf("!x%d", l.Var)
	}
	return fmt.Sprintf("x%d", l.Var)
}

// Term is a conjunction of literals (a disjunct of a DNF formula).
type Term []Lit

// Eval reports whether all literals of the term hold under a.
func (t Term) Eval(a []bool) bool {
	for _, l := range t {
		if !l.Eval(a) {
			return false
		}
	}
	return true
}

// Clone returns a copy of the term.
func (t Term) Clone() Term { return append(Term(nil), t...) }

// Normalize sorts the literals by variable, removes duplicates, and
// reports whether the term is satisfiable (i.e. contains no
// complementary pair). An unsatisfiable term is returned unchanged
// beyond sorting.
func (t Term) Normalize() (Term, bool) {
	c := t.Clone()
	sort.Slice(c, func(i, j int) bool {
		if c[i].Var != c[j].Var {
			return c[i].Var < c[j].Var
		}
		return !c[i].Neg && c[j].Neg
	})
	out := c[:0]
	for i, l := range c {
		if i > 0 && l == c[i-1] {
			continue
		}
		if i > 0 && l.Var == c[i-1].Var && l.Neg != c[i-1].Neg {
			return c, false
		}
		out = append(out, l)
	}
	return out, true
}

// Vars returns the sorted distinct variables of the term.
func (t Term) Vars() []int {
	seen := map[int]struct{}{}
	for _, l := range t {
		seen[l.Var] = struct{}{}
	}
	vars := make([]int, 0, len(seen))
	for v := range seen {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	return vars
}

// String renders the term as "x0 & !x2"; the empty term renders as
// "true" (it is the empty conjunction).
func (t Term) String() string {
	if len(t) == 0 {
		return "true"
	}
	parts := make([]string, len(t))
	for i, l := range t {
		parts[i] = l.String()
	}
	return strings.Join(parts, " & ")
}

// DNF is a propositional formula in disjunctive normal form: a
// disjunction of terms over variables 0..NumVars-1. A DNF with no terms
// is the constant false; a DNF containing an empty term is a tautology.
type DNF struct {
	NumVars int
	Terms   []Term
}

// newDNF builds a DNF, validating that every literal's variable lies in
// [0, numVars).
func newDNF(numVars int, terms ...Term) (DNF, error) {
	d := DNF{NumVars: numVars, Terms: terms}
	for _, t := range terms {
		for _, l := range t {
			if l.Var < 0 || l.Var >= numVars {
				return DNF{}, fmt.Errorf("prop: literal %v outside variable range [0,%d)", l, numVars)
			}
		}
	}
	return d, nil
}

// MustDNF is newDNF that panics on error.
func MustDNF(numVars int, terms ...Term) DNF {
	d, err := newDNF(numVars, terms...)
	if err != nil {
		panic(err)
	}
	return d
}

// Eval reports whether some term holds under a.
func (d DNF) Eval(a []bool) bool {
	for _, t := range d.Terms {
		if t.Eval(a) {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the formula.
func (d DNF) Clone() DNF {
	terms := make([]Term, len(d.Terms))
	for i, t := range d.Terms {
		terms[i] = t.Clone()
	}
	return DNF{NumVars: d.NumVars, Terms: terms}
}

// Width returns the maximum number of literals in any term — the k for
// which the formula is a kDNF. The empty formula has width 0.
func (d DNF) Width() int {
	w := 0
	for _, t := range d.Terms {
		if len(t) > w {
			w = len(t)
		}
	}
	return w
}

// Simplify normalizes every term, drops unsatisfiable terms, and removes
// subsumed terms (a term is subsumed if a subset of its literals already
// forms another term). The result is logically equivalent to d.
func (d DNF) Simplify() DNF {
	norm := make([]Term, 0, len(d.Terms))
	for _, t := range d.Terms {
		nt, sat := t.Normalize()
		if !sat {
			continue
		}
		norm = append(norm, nt)
	}
	// Subsumption: sort by length so potential subsumers come first.
	sort.Slice(norm, func(i, j int) bool { return len(norm[i]) < len(norm[j]) })
	kept := make([]Term, 0, len(norm))
	for _, t := range norm {
		subsumed := false
		for _, s := range kept {
			if termSubset(s, t) {
				subsumed = true
				break
			}
		}
		if !subsumed {
			kept = append(kept, t)
		}
	}
	return DNF{NumVars: d.NumVars, Terms: kept}
}

// termSubset reports whether every literal of s occurs in t. Both terms
// must be normalized (sorted by variable).
func termSubset(s, t Term) bool {
	i := 0
	for _, l := range t {
		if i < len(s) && s[i] == l {
			i++
		}
	}
	return i == len(s)
}

// Or returns the disjunction of d and e; the variable count is the max
// of the two.
func (d DNF) Or(e DNF) DNF {
	n := d.NumVars
	if e.NumVars > n {
		n = e.NumVars
	}
	terms := make([]Term, 0, len(d.Terms)+len(e.Terms))
	for _, t := range d.Terms {
		terms = append(terms, t.Clone())
	}
	for _, t := range e.Terms {
		terms = append(terms, t.Clone())
	}
	return DNF{NumVars: n, Terms: terms}
}

// AndTerm conjoins the literals of extra onto every term of d
// (distributing the conjunction over the disjunction). Unsatisfiable
// products are dropped.
func (d DNF) AndTerm(extra Term) DNF {
	out := DNF{NumVars: d.NumVars}
	for _, l := range extra {
		if l.Var >= out.NumVars {
			out.NumVars = l.Var + 1
		}
	}
	for _, t := range d.Terms {
		prod := append(t.Clone(), extra...)
		if nt, sat := prod.Normalize(); sat {
			out.Terms = append(out.Terms, nt)
		}
	}
	return out
}

// Vars returns the sorted distinct variables occurring in the formula.
func (d DNF) Vars() []int {
	seen := map[int]struct{}{}
	for _, t := range d.Terms {
		for _, l := range t {
			seen[l.Var] = struct{}{}
		}
	}
	vars := make([]int, 0, len(seen))
	for v := range seen {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	return vars
}

// String renders the formula as "(x0 & x1) | (!x2)"; the empty formula
// renders as "false".
func (d DNF) String() string {
	if len(d.Terms) == 0 {
		return "false"
	}
	parts := make([]string, len(d.Terms))
	for i, t := range d.Terms {
		parts[i] = "(" + t.String() + ")"
	}
	return strings.Join(parts, " | ")
}

// Clause is a disjunction of literals (a conjunct of a CNF formula).
type Clause []Lit

// Eval reports whether some literal of the clause holds under a.
func (c Clause) Eval(a []bool) bool {
	for _, l := range c {
		if l.Eval(a) {
			return true
		}
	}
	return false
}

// String renders the clause as "x0 | !x1"; the empty clause renders as
// "false".
func (c Clause) String() string {
	if len(c) == 0 {
		return "false"
	}
	parts := make([]string, len(c))
	for i, l := range c {
		parts[i] = l.String()
	}
	return strings.Join(parts, " | ")
}

// CNF is a propositional formula in conjunctive normal form. A CNF with
// no clauses is the constant true.
type CNF struct {
	NumVars int
	Clauses []Clause
}

// Eval reports whether every clause holds under a.
func (c CNF) Eval(a []bool) bool {
	for _, cl := range c.Clauses {
		if !cl.Eval(a) {
			return false
		}
	}
	return true
}

// Negate returns the DNF equivalent to the negation of the CNF: each
// clause's negation is a term. (De Morgan; no blowup.)
func (c CNF) Negate() DNF {
	terms := make([]Term, len(c.Clauses))
	for i, cl := range c.Clauses {
		t := make(Term, len(cl))
		for j, l := range cl {
			t[j] = l.Negate()
		}
		terms[i] = t
	}
	return DNF{NumVars: c.NumVars, Terms: terms}
}

// ToDNF distributes the CNF into an equivalent DNF. The result may be
// exponentially larger; maxTerms bounds the intermediate size and an
// error is returned when exceeded.
func (c CNF) ToDNF(maxTerms int) (DNF, error) {
	cur := DNF{NumVars: c.NumVars, Terms: []Term{{}}}
	for _, cl := range c.Clauses {
		next := DNF{NumVars: c.NumVars}
		for _, t := range cur.Terms {
			for _, l := range cl {
				prod := append(t.Clone(), l)
				if nt, sat := prod.Normalize(); sat {
					next.Terms = append(next.Terms, nt)
				}
			}
			if len(next.Terms) > maxTerms {
				return DNF{}, fmt.Errorf("prop: CNF-to-DNF blowup exceeds %d terms", maxTerms)
			}
		}
		cur = next.Simplify()
	}
	return cur, nil
}

// String renders the CNF as "(x0 | x1) & (!x2)"; empty renders "true".
func (c CNF) String() string {
	if len(c.Clauses) == 0 {
		return "true"
	}
	parts := make([]string, len(c.Clauses))
	for i, cl := range c.Clauses {
		parts[i] = "(" + cl.String() + ")"
	}
	return strings.Join(parts, " & ")
}
