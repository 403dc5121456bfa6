package logic

import (
	"fmt"
)

// Substitute returns f with every free occurrence of a variable in
// subst replaced by the given term, renaming bound variables where
// necessary to avoid capture (when a substituted term mentions a
// variable that a quantifier would bind).
func Substitute(f Formula, subst map[string]Term) Formula {
	s := &substituter{fresh: newFreshNamer(f, subst)}
	return s.apply(f, subst)
}

type substituter struct {
	fresh *freshNamer
}

func (s *substituter) term(t Term, subst map[string]Term) Term {
	if v, ok := t.(Var); ok {
		if repl, ok := subst[string(v)]; ok {
			return repl
		}
	}
	return t
}

func (s *substituter) terms(ts []Term, subst map[string]Term) []Term {
	out := make([]Term, len(ts))
	for i, t := range ts {
		out[i] = s.term(t, subst)
	}
	return out
}

func (s *substituter) apply(f Formula, subst map[string]Term) Formula {
	switch g := f.(type) {
	case Bool:
		return g
	case Atom:
		return Atom{Rel: g.Rel, Args: s.terms(g.Args, subst)}
	case Eq:
		return Eq{L: s.term(g.L, subst), R: s.term(g.R, subst)}
	case Not:
		return Not{F: s.apply(g.F, subst)}
	case And:
		out := make(And, len(g))
		for i, h := range g {
			out[i] = s.apply(h, subst)
		}
		return out
	case Or:
		out := make(Or, len(g))
		for i, h := range g {
			out[i] = s.apply(h, subst)
		}
		return out
	case Implies:
		return Implies{L: s.apply(g.L, subst), R: s.apply(g.R, subst)}
	case Iff:
		return Iff{L: s.apply(g.L, subst), R: s.apply(g.R, subst)}
	case Exists:
		vars, body := s.applyQuant(g.Vars, g.Body, subst)
		return Exists{Vars: vars, Body: body}
	case Forall:
		vars, body := s.applyQuant(g.Vars, g.Body, subst)
		return Forall{Vars: vars, Body: body}
	case SOQuant:
		return SOQuant{Exists: g.Exists, Rel: g.Rel, Arity: g.Arity, Body: s.apply(g.Body, subst)}
	default:
		panic(fmt.Sprintf("logic: Substitute of unknown node %T", f))
	}
}

// applyQuant handles a quantifier block: bound variables shadow the
// substitution, and any bound variable that would capture a variable of
// a substituted term is renamed to a fresh name.
func (s *substituter) applyQuant(vars []string, body Formula, subst map[string]Term) ([]string, Formula) {
	inner := make(map[string]Term, len(subst))
	for k, v := range subst {
		inner[k] = v
	}
	// The substituted terms' free variables, for capture detection.
	captured := map[string]bool{}
	for k, t := range subst {
		_ = k
		if v, ok := t.(Var); ok {
			captured[string(v)] = true
		}
	}
	newVars := append([]string(nil), vars...)
	for i, v := range vars {
		delete(inner, v) // bound: shadowed
		if captured[v] {
			// Rename this bound variable to avoid capturing an incoming
			// term.
			nv := s.fresh.next(v)
			newVars[i] = nv
			inner[v] = Var(nv)
		}
	}
	return newVars, s.apply(body, inner)
}

// freshNamer issues variable names not occurring anywhere in the
// formula or the substitution.
type freshNamer struct {
	used map[string]bool
	n    int
}

func newFreshNamer(f Formula, subst map[string]Term) *freshNamer {
	used := map[string]bool{}
	collectVarNames(f, used)
	for k, t := range subst {
		used[k] = true
		if v, ok := t.(Var); ok {
			used[string(v)] = true
		}
	}
	return &freshNamer{used: used}
}

func (fr *freshNamer) next(base string) string {
	for {
		fr.n++
		name := fmt.Sprintf("%s_%d", base, fr.n)
		if !fr.used[name] {
			fr.used[name] = true
			return name
		}
	}
}

// collectVarNames gathers every variable name (free or bound) in f.
func collectVarNames(f Formula, out map[string]bool) {
	noteTerm := func(t Term) {
		if v, ok := t.(Var); ok {
			out[string(v)] = true
		}
	}
	walk(f, func(g Formula) bool {
		switch h := g.(type) {
		case Atom:
			for _, t := range h.Args {
				noteTerm(t)
			}
		case Eq:
			noteTerm(h.L)
			noteTerm(h.R)
		case Exists:
			for _, v := range h.Vars {
				out[v] = true
			}
		case Forall:
			for _, v := range h.Vars {
				out[v] = true
			}
		}
		return true
	})
}
