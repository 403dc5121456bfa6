package logic

import "fmt"

// Class is the paper's query-language classification, ordered by
// inclusion of the corresponding reliability complexity results:
// quantifier-free ⊂ conjunctive ⊂ existential ⊂ first-order ⊂
// second-order.
type Class int

// Query classes, from most to least restricted.
const (
	// ClassQuantifierFree: no quantifiers at all (Proposition 3.1:
	// reliability in FP).
	ClassQuantifierFree Class = iota
	// ClassConjunctive: ∃x̄ (φ1 ∧ ... ∧ φℓ) with atomic φi
	// (Proposition 3.2: reliability may be FP^#P-complete).
	ClassConjunctive
	// ClassExistential: equivalent (after NNF) to a formula with only
	// existential quantifiers (Theorem 5.4: probability has an FPTRAS).
	ClassExistential
	// ClassUniversal: NNF contains only universal quantifiers
	// (Corollary 5.5 applies via the negation).
	ClassUniversal
	// ClassFirstOrder: arbitrary first-order (Theorem 4.2: reliability
	// in FP^#P; Theorem 5.12: absolute-error approximable).
	ClassFirstOrder
	// ClassSecondOrder: contains second-order quantifiers (Theorem 4.2
	// still applies: reliability in FP^#P).
	ClassSecondOrder
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassQuantifierFree:
		return "quantifier-free"
	case ClassConjunctive:
		return "conjunctive"
	case ClassExistential:
		return "existential"
	case ClassUniversal:
		return "universal"
	case ClassFirstOrder:
		return "first-order"
	case ClassSecondOrder:
		return "second-order"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Classify returns the most restricted class that syntactically contains
// f (after NNF normalization for the existential/universal tests).
func Classify(f Formula) Class {
	if hasSO(f) {
		return ClassSecondOrder
	}
	if IsQuantifierFree(f) {
		return ClassQuantifierFree
	}
	if isConjunctive(f) {
		return ClassConjunctive
	}
	n := NNF(f)
	hasE, hasA := quantifierKinds(n)
	switch {
	case hasE && !hasA:
		return ClassExistential
	case hasA && !hasE:
		return ClassUniversal
	default:
		return ClassFirstOrder
	}
}

// Compilable reports whether f is in the fragment the bytecode
// compiler (internal/vm) accepts: every first-order formula grounds
// to a propositional matrix over the finite universe, so only
// second-order quantifiers are out. Grounding can still fail on size
// (MaxGroundTerms), which compilers report as an ordinary error;
// Compilable is the cheap syntactic pre-check.
func Compilable(f Formula) bool {
	return !hasSO(f)
}

// hasSO reports whether f contains a second-order quantifier.
func hasSO(f Formula) bool {
	found := false
	walk(f, func(g Formula) bool {
		if _, ok := g.(SOQuant); ok {
			found = true
			return false
		}
		return !found
	})
	return found
}

// IsQuantifierFree reports whether f contains no quantifiers of either
// order.
func IsQuantifierFree(f Formula) bool {
	qf := true
	walk(f, func(g Formula) bool {
		switch g.(type) {
		case Exists, Forall, SOQuant:
			qf = false
			return false
		}
		return qf
	})
	return qf
}

// isConjunctive reports whether f has the shape ∃x1...∃xk (φ1 ∧ ... ∧ φℓ)
// with every φi a relational or equality atom. Nested Exists blocks and
// nested conjunctions are flattened; a single atom counts as a
// one-conjunct query.
func isConjunctive(f Formula) bool {
	body := f
	for {
		e, ok := body.(Exists)
		if !ok {
			break
		}
		body = e.Body
	}
	return isAtomConjunction(body)
}

func isAtomConjunction(f Formula) bool {
	switch g := f.(type) {
	case Atom, Eq:
		return true
	case And:
		for _, h := range g {
			if !isAtomConjunction(h) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// quantifierKinds reports which first-order quantifier kinds occur in an
// NNF formula.
func quantifierKinds(f Formula) (hasExists, hasForall bool) {
	walk(f, func(g Formula) bool {
		switch g.(type) {
		case Exists:
			hasExists = true
		case Forall:
			hasForall = true
		}
		return true
	})
	return
}

// NNF returns the negation normal form of f: implications and
// equivalences are expanded and negations pushed down to atoms. The
// result contains only Bool, Atom, Eq, Not-of-atom, And, Or, Exists,
// Forall and SOQuant nodes.
func NNF(f Formula) Formula {
	return nnf(f, false)
}

func nnf(f Formula, neg bool) Formula {
	switch g := f.(type) {
	case Bool:
		return Bool(bool(g) != neg)
	case Atom:
		if neg {
			return Not{g}
		}
		return g
	case Eq:
		if neg {
			return Not{g}
		}
		return g
	case Not:
		return nnf(g.F, !neg)
	case And:
		parts := make([]Formula, len(g))
		for i, h := range g {
			parts[i] = nnf(h, neg)
		}
		if neg {
			return Or(parts)
		}
		return And(parts)
	case Or:
		parts := make([]Formula, len(g))
		for i, h := range g {
			parts[i] = nnf(h, neg)
		}
		if neg {
			return And(parts)
		}
		return Or(parts)
	case Implies:
		// L -> R  ≡  !L | R
		return nnf(Or{Not{g.L}, g.R}, neg)
	case Iff:
		// L <-> R  ≡  (L & R) | (!L & !R)
		return nnf(Or{And{g.L, g.R}, And{Not{g.L}, Not{g.R}}}, neg)
	case Exists:
		if neg {
			return Forall{Vars: g.Vars, Body: nnf(g.Body, true)}
		}
		return Exists{Vars: g.Vars, Body: nnf(g.Body, false)}
	case Forall:
		if neg {
			return Exists{Vars: g.Vars, Body: nnf(g.Body, true)}
		}
		return Forall{Vars: g.Vars, Body: nnf(g.Body, false)}
	case SOQuant:
		ex := g.Exists
		if neg {
			ex = !ex
		}
		return SOQuant{Exists: ex, Rel: g.Rel, Arity: g.Arity, Body: nnf(g.Body, neg)}
	default:
		panic(fmt.Sprintf("logic: NNF of unknown node %T", f))
	}
}
