package prop

import (
	"context"
	"fmt"
	"strings"
)

// Formula is an arbitrary propositional formula tree. It is the
// intermediate representation between grounded first-order matrices and
// the DNF consumed by the counting engines.
type Formula interface {
	// Eval returns the truth value under the assignment.
	Eval(a []bool) bool
	// String renders the formula.
	String() string
	isFormula()
}

// FVar is a propositional variable.
type FVar int

// FTrue and FFalse are the propositional constants.
type (
	FTrue  struct{}
	FFalse struct{}
)

// FNot is negation.
type FNot struct{ F Formula }

// FAnd is an n-ary conjunction; the empty conjunction is true.
type FAnd []Formula

// FOr is an n-ary disjunction; the empty disjunction is false.
type FOr []Formula

func (FVar) isFormula()   {}
func (FTrue) isFormula()  {}
func (FFalse) isFormula() {}
func (FNot) isFormula()   {}
func (FAnd) isFormula()   {}
func (FOr) isFormula()    {}

// Eval implements Formula.
func (v FVar) Eval(a []bool) bool { return a[int(v)] }

// Eval implements Formula.
func (FTrue) Eval([]bool) bool { return true }

// Eval implements Formula.
func (FFalse) Eval([]bool) bool { return false }

// Eval implements Formula.
func (n FNot) Eval(a []bool) bool { return !n.F.Eval(a) }

// Eval implements Formula.
func (c FAnd) Eval(a []bool) bool {
	for _, f := range c {
		if !f.Eval(a) {
			return false
		}
	}
	return true
}

// Eval implements Formula.
func (d FOr) Eval(a []bool) bool {
	for _, f := range d {
		if f.Eval(a) {
			return true
		}
	}
	return false
}

func (v FVar) String() string { return fmt.Sprintf("x%d", int(v)) }
func (FTrue) String() string  { return "true" }
func (FFalse) String() string { return "false" }
func (n FNot) String() string { return "!" + n.F.String() }
func (c FAnd) String() string { return joinFormulas([]Formula(c), " & ", "true") }
func (d FOr) String() string  { return joinFormulas([]Formula(d), " | ", "false") }

func joinFormulas(fs []Formula, sep, empty string) string {
	if len(fs) == 0 {
		return empty
	}
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = "(" + f.String() + ")"
	}
	return strings.Join(parts, sep)
}

// ToDNFCtx converts the formula into an equivalent simplified DNF over
// numVars variables by pushing negations to the literals and
// distributing. maxTerms bounds the intermediate term count; ErrBudget
// is returned (wrapped) when exceeded. The distribution — the one
// potentially exponential loop of the grounding pipeline — polls ctx as
// terms accumulate and stops with ctx's error once it is done.
func ToDNFCtx(ctx context.Context, f Formula, numVars, maxTerms int) (DNF, error) {
	c := &dnfConv{ctx: ctx, maxTerms: maxTerms}
	terms, err := c.terms(f, false)
	if err != nil {
		return DNF{}, err
	}
	d := DNF{NumVars: numVars, Terms: terms}
	if len(terms) <= 4096 {
		// Full simplification (including quadratic subsumption) only for
		// moderate sizes; larger results keep duplicate/subsumed terms,
		// which all downstream algorithms tolerate.
		d = d.Simplify()
	}
	for _, t := range d.Terms {
		for _, l := range t {
			if l.Var >= numVars {
				return DNF{}, fmt.Errorf("prop: formula variable x%d outside declared range [0,%d)", l.Var, numVars)
			}
		}
	}
	return d, nil
}

// dnfConv carries the budget and cancellation context through the DNF
// distribution recursion.
type dnfConv struct {
	ctx      context.Context
	maxTerms int
	steps    int
}

// poll checks the context every few hundred distribution steps.
func (c *dnfConv) poll() error {
	if c.steps++; c.steps&255 != 0 {
		return nil
	}
	return c.ctx.Err()
}

// terms returns the terms of the DNF of f (negated when neg is set).
func (c *dnfConv) terms(f Formula, neg bool) ([]Term, error) {
	switch g := f.(type) {
	case FVar:
		return []Term{{Lit{Var: int(g), Neg: neg}}}, nil
	case FTrue:
		if neg {
			return nil, nil
		}
		return []Term{{}}, nil
	case FFalse:
		if neg {
			return []Term{{}}, nil
		}
		return nil, nil
	case FNot:
		return c.terms(g.F, !neg)
	case FAnd:
		// De Morgan: a negated conjunction distributes as a disjunction.
		if neg {
			return c.or([]Formula(g), true)
		}
		return c.and([]Formula(g), false)
	case FOr:
		if neg {
			return c.and([]Formula(g), true)
		}
		return c.or([]Formula(g), false)
	default:
		return nil, fmt.Errorf("prop: unknown formula node %T", f)
	}
}

func (c *dnfConv) or(fs []Formula, neg bool) ([]Term, error) {
	var out []Term
	for _, f := range fs {
		ts, err := c.terms(f, neg)
		if err != nil {
			return nil, err
		}
		out = append(out, ts...)
		if len(out) > c.maxTerms {
			return nil, fmt.Errorf("%w: DNF conversion exceeds %d terms", ErrBudget, c.maxTerms)
		}
	}
	return out, nil
}

func (c *dnfConv) and(fs []Formula, neg bool) ([]Term, error) {
	out := []Term{{}}
	for _, f := range fs {
		ts, err := c.terms(f, neg)
		if err != nil {
			return nil, err
		}
		var next []Term
		for _, a := range out {
			if err := c.poll(); err != nil {
				return nil, fmt.Errorf("prop: DNF conversion canceled: %w", err)
			}
			for _, b := range ts {
				prod := append(a.Clone(), b...)
				if nt, sat := prod.Normalize(); sat {
					next = append(next, nt)
				}
				if len(next) > c.maxTerms {
					return nil, fmt.Errorf("%w: DNF conversion exceeds %d terms", ErrBudget, c.maxTerms)
				}
			}
		}
		out = next
	}
	return out, nil
}

// Fold substitutes the fixed variables into f and constant-folds the
// result: conjunctions containing false collapse, satisfied disjuncts
// collapse, and double negations of constants vanish. Grounded query
// lineages call this with the deterministic atoms (nu ∈ {0, 1}) of an
// unreliable database, which typically shrinks the lineage from the
// full ground-atom space to the uncertain atoms only.
func Fold(f Formula, fixed map[int]bool) Formula {
	switch g := f.(type) {
	case FVar:
		if v, ok := fixed[int(g)]; ok {
			if v {
				return FTrue{}
			}
			return FFalse{}
		}
		return g
	case FTrue, FFalse:
		return g
	case FNot:
		inner := Fold(g.F, fixed)
		switch inner.(type) {
		case FTrue:
			return FFalse{}
		case FFalse:
			return FTrue{}
		}
		return FNot{F: inner}
	case FAnd:
		var parts FAnd
		for _, h := range g {
			sub := Fold(h, fixed)
			switch sub.(type) {
			case FTrue:
				continue
			case FFalse:
				return FFalse{}
			}
			parts = append(parts, sub)
		}
		if len(parts) == 0 {
			return FTrue{}
		}
		if len(parts) == 1 {
			return parts[0]
		}
		return parts
	case FOr:
		var parts FOr
		for _, h := range g {
			sub := Fold(h, fixed)
			switch sub.(type) {
			case FFalse:
				continue
			case FTrue:
				return FTrue{}
			}
			parts = append(parts, sub)
		}
		if len(parts) == 0 {
			return FFalse{}
		}
		if len(parts) == 1 {
			return parts[0]
		}
		return parts
	default:
		return g
	}
}
