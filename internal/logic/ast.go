// Package logic implements the query languages of the paper: first-order
// logic over relational vocabularies (with its quantifier-free,
// conjunctive, existential and universal fragments) and relational
// second-order quantification. It provides an AST, a parser, a printer,
// an evaluator over rel.Structure, fragment classification, and the
// grounding (lineage) transformation of Theorem 5.4 that maps a query on
// a concrete database to a propositional formula over ground atoms.
package logic

import (
	"fmt"
	"strings"
)

// Term is a first-order term: a variable, a named constant, or a direct
// universe element.
type Term interface {
	fmt.Stringer
	isTerm()
}

// Var is a first-order variable.
type Var string

// Const is a named constant, interpreted by the structure.
type Const string

// Elem is a direct universe element (useful for per-tuple instantiation
// ψ(ā) without renaming).
type Elem int

func (Var) isTerm()   {}
func (Const) isTerm() {}
func (Elem) isTerm()  {}

func (v Var) String() string   { return string(v) }
func (c Const) String() string { return string(c) }
func (e Elem) String() string  { return fmt.Sprintf("#%d", int(e)) }

// Formula is a first- or second-order formula.
type Formula interface {
	fmt.Stringer
	isFormula()
}

// Bool is a propositional constant.
type Bool bool

// Atom is a relational atom R(t1, ..., tk).
type Atom struct {
	Rel  string
	Args []Term
}

// Eq is an equality atom t1 = t2.
type Eq struct {
	L, R Term
}

// Not is negation.
type Not struct {
	F Formula
}

// And is an n-ary conjunction; empty means true.
type And []Formula

// Or is an n-ary disjunction; empty means false.
type Or []Formula

// Implies is material implication.
type Implies struct {
	L, R Formula
}

// Iff is logical equivalence.
type Iff struct {
	L, R Formula
}

// Exists is a block of first-order existential quantifiers.
type Exists struct {
	Vars []string
	Body Formula
}

// Forall is a block of first-order universal quantifiers.
type Forall struct {
	Vars []string
	Body Formula
}

// SOQuant is a second-order quantifier over a relation variable of the
// given arity.
type SOQuant struct {
	Exists bool
	Rel    string
	Arity  int
	Body   Formula
}

func (Bool) isFormula()    {}
func (Atom) isFormula()    {}
func (Eq) isFormula()      {}
func (Not) isFormula()     {}
func (And) isFormula()     {}
func (Or) isFormula()      {}
func (Implies) isFormula() {}
func (Iff) isFormula()     {}
func (Exists) isFormula()  {}
func (Forall) isFormula()  {}
func (SOQuant) isFormula() {}

// String renders the formula in the concrete syntax accepted by Parse.
func (b Bool) String() string {
	if b {
		return "true"
	}
	return "false"
}

// String renders the atom as "R(x,y)".
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Rel + "(" + strings.Join(parts, ",") + ")"
}

func (e Eq) String() string  { return e.L.String() + " = " + e.R.String() }
func (n Not) String() string { return "!" + paren(n.F) }

func (c And) String() string {
	if len(c) == 0 {
		return "true"
	}
	parts := make([]string, len(c))
	for i, f := range c {
		parts[i] = paren(f)
	}
	return strings.Join(parts, " & ")
}

func (d Or) String() string {
	if len(d) == 0 {
		return "false"
	}
	parts := make([]string, len(d))
	for i, f := range d {
		parts[i] = paren(f)
	}
	return strings.Join(parts, " | ")
}

func (i Implies) String() string { return paren(i.L) + " -> " + paren(i.R) }
func (i Iff) String() string     { return paren(i.L) + " <-> " + paren(i.R) }

func (e Exists) String() string {
	return "exists " + strings.Join(e.Vars, " ") + " . " + e.Body.String()
}

func (f Forall) String() string {
	return "forall " + strings.Join(f.Vars, " ") + " . " + f.Body.String()
}

func (q SOQuant) String() string {
	kw := "existsrel"
	if !q.Exists {
		kw = "forallrel"
	}
	return fmt.Sprintf("%s %s/%d . %s", kw, q.Rel, q.Arity, q.Body.String())
}

// paren wraps non-leaf subformulas in parentheses for unambiguous
// rendering.
func paren(f Formula) string {
	switch f.(type) {
	case Bool, Atom, Eq, Not:
		return f.String()
	default:
		return "(" + f.String() + ")"
	}
}

// walk calls fn on f and all its subformulas in preorder; if fn returns
// false the subtree below that node is skipped.
func walk(f Formula, fn func(Formula) bool) {
	if !fn(f) {
		return
	}
	switch g := f.(type) {
	case Not:
		walk(g.F, fn)
	case And:
		for _, h := range g {
			walk(h, fn)
		}
	case Or:
		for _, h := range g {
			walk(h, fn)
		}
	case Implies:
		walk(g.L, fn)
		walk(g.R, fn)
	case Iff:
		walk(g.L, fn)
		walk(g.R, fn)
	case Exists:
		walk(g.Body, fn)
	case Forall:
		walk(g.Body, fn)
	case SOQuant:
		walk(g.Body, fn)
	}
}

// FreeVars returns the free first-order variables of f in first-seen
// order.
func FreeVars(f Formula) []string {
	var out []string
	seen := map[string]struct{}{}
	freeVars(f, map[string]int{}, func(v string) {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	})
	return out
}

func freeVars(f Formula, bound map[string]int, emit func(string)) {
	emitTerm := func(t Term) {
		if v, ok := t.(Var); ok {
			if bound[string(v)] == 0 {
				emit(string(v))
			}
		}
	}
	switch g := f.(type) {
	case Atom:
		for _, t := range g.Args {
			emitTerm(t)
		}
	case Eq:
		emitTerm(g.L)
		emitTerm(g.R)
	case Not:
		freeVars(g.F, bound, emit)
	case And:
		for _, h := range g {
			freeVars(h, bound, emit)
		}
	case Or:
		for _, h := range g {
			freeVars(h, bound, emit)
		}
	case Implies:
		freeVars(g.L, bound, emit)
		freeVars(g.R, bound, emit)
	case Iff:
		freeVars(g.L, bound, emit)
		freeVars(g.R, bound, emit)
	case Exists:
		for _, v := range g.Vars {
			bound[v]++
		}
		freeVars(g.Body, bound, emit)
		for _, v := range g.Vars {
			bound[v]--
		}
	case Forall:
		for _, v := range g.Vars {
			bound[v]++
		}
		freeVars(g.Body, bound, emit)
		for _, v := range g.Vars {
			bound[v]--
		}
	case SOQuant:
		freeVars(g.Body, bound, emit)
	}
}
