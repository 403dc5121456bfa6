package logic

import "fmt"

// prenex converts a first-order formula into prenex normal form: a
// (possibly alternating) quantifier prefix over a quantifier-free
// matrix, logically equivalent to the input. Bound variables are
// standardized apart first. Second-order quantifiers are rejected.
func prenex(f Formula) (Formula, error) {
	if hasSO(f) {
		return nil, fmt.Errorf("logic: prenex does not support second-order quantifiers")
	}
	n := NNF(f)
	n = standardizeApart(n, newFreshNamer(n, nil))
	prefix, matrix := pullQuantifiers(n)
	out := matrix
	for i := len(prefix) - 1; i >= 0; i-- {
		q := prefix[i]
		if q.exists {
			out = Exists{Vars: []string{q.v}, Body: out}
		} else {
			out = Forall{Vars: []string{q.v}, Body: out}
		}
	}
	return out, nil
}

type quant struct {
	exists bool
	v      string
}

// standardizeApart renames every bound variable to a globally unique
// name. The input must be in NNF (no Implies/Iff).
func standardizeApart(f Formula, fresh *freshNamer) Formula {
	var rename func(Formula, map[string]Term) Formula
	rename = func(g Formula, ren map[string]Term) Formula {
		switch h := g.(type) {
		case Bool:
			return h
		case Atom, Eq:
			return Substitute(h, ren)
		case Not:
			return Not{F: rename(h.F, ren)}
		case And:
			out := make(And, len(h))
			for i, sub := range h {
				out[i] = rename(sub, ren)
			}
			return out
		case Or:
			out := make(Or, len(h))
			for i, sub := range h {
				out[i] = rename(sub, ren)
			}
			return out
		case Exists, Forall:
			var vars []string
			var body Formula
			exists := false
			if e, ok := h.(Exists); ok {
				vars, body, exists = e.Vars, e.Body, true
			} else {
				fa := h.(Forall)
				vars, body = fa.Vars, fa.Body
			}
			inner := make(map[string]Term, len(ren))
			for k, v := range ren {
				inner[k] = v
			}
			newVars := make([]string, len(vars))
			for i, v := range vars {
				nv := fresh.next(v)
				newVars[i] = nv
				inner[v] = Var(nv)
			}
			nb := rename(body, inner)
			if exists {
				return Exists{Vars: newVars, Body: nb}
			}
			return Forall{Vars: newVars, Body: nb}
		default:
			panic(fmt.Sprintf("logic: standardizeApart on non-NNF node %T", g))
		}
	}
	return rename(f, map[string]Term{})
}

// pullQuantifiers extracts the quantifier prefix of a standardized NNF
// formula. Since all bound names are distinct, prefixes of siblings can
// be concatenated freely.
func pullQuantifiers(f Formula) ([]quant, Formula) {
	switch g := f.(type) {
	case Exists:
		inner, matrix := pullQuantifiers(g.Body)
		prefix := make([]quant, 0, len(g.Vars)+len(inner))
		for _, v := range g.Vars {
			prefix = append(prefix, quant{exists: true, v: v})
		}
		return append(prefix, inner...), matrix
	case Forall:
		inner, matrix := pullQuantifiers(g.Body)
		prefix := make([]quant, 0, len(g.Vars)+len(inner))
		for _, v := range g.Vars {
			prefix = append(prefix, quant{exists: false, v: v})
		}
		return append(prefix, inner...), matrix
	case And:
		var prefix []quant
		out := make(And, len(g))
		for i, h := range g {
			p, m := pullQuantifiers(h)
			prefix = append(prefix, p...)
			out[i] = m
		}
		return prefix, out
	case Or:
		var prefix []quant
		out := make(Or, len(g))
		for i, h := range g {
			p, m := pullQuantifiers(h)
			prefix = append(prefix, p...)
			out[i] = m
		}
		return prefix, out
	case Not:
		// NNF: negation only above atoms; nothing to pull.
		return nil, g
	default:
		return nil, g
	}
}
