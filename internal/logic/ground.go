package logic

import (
	"fmt"

	"qrel/internal/prop"
	"qrel/internal/rel"
)

// AtomIndex maps ground atoms to dense propositional variable indices.
// It is the shared namespace between a query's lineage (a prop formula)
// and the probability assignment derived from an unreliable database.
type AtomIndex struct {
	byKey map[rel.AtomKey]int
	atoms []rel.GroundAtom
}

// NewAtomIndex returns an empty index.
func NewAtomIndex() *AtomIndex {
	return &AtomIndex{byKey: map[rel.AtomKey]int{}}
}

// ID returns the propositional variable for the atom, allocating one on
// first sight.
func (ix *AtomIndex) ID(a rel.GroundAtom) int {
	k := a.Key()
	if id, ok := ix.byKey[k]; ok {
		return id
	}
	id := len(ix.atoms)
	ix.byKey[k] = id
	ix.atoms = append(ix.atoms, rel.GroundAtom{Rel: a.Rel, Args: a.Args.Clone()})
	return id
}

// Lookup returns the variable for the atom if it has been allocated.
func (ix *AtomIndex) Lookup(a rel.GroundAtom) (int, bool) {
	id, ok := ix.byKey[a.Key()]
	return id, ok
}

// Atom returns the ground atom for a variable index.
func (ix *AtomIndex) Atom(id int) rel.GroundAtom { return ix.atoms[id] }

// Len returns the number of allocated variables.
func (ix *AtomIndex) Len() int { return len(ix.atoms) }

// Atoms returns the allocated atoms in variable order. The slice is
// shared; callers must not mutate it.
func (ix *AtomIndex) Atoms() []rel.GroundAtom { return ix.atoms }

// AtomNamer numbers the ground atoms a grounding meets: the variables
// of the propositional formula Ground returns. AtomIndex allocates dense
// ids in order of first sight; a caller that only needs each atom's
// meaning can number atoms by it and keep no index.
type AtomNamer interface {
	ID(a rel.GroundAtom) int
}

// MaxGroundTerms bounds the number of propositional nodes the grounding
// expansion may produce.
const MaxGroundTerms = 1 << 22

// Ground expands f over the structure's universe into a propositional
// formula whose variables are ground atoms (numbered by ix): first-order
// quantifiers become disjunctions/conjunctions over elements and
// equalities are replaced by their truth values — exactly the
// ψ ↦ ψ” construction in the proof of Theorem 5.4, generalized to
// arbitrary first-order formulas. env supplies values for free
// variables. Second-order quantifiers are rejected.
func Ground(s *rel.Structure, f Formula, env Env, ix AtomNamer) (prop.Formula, error) {
	g := &grounder{s: s, ix: ix, budget: MaxGroundTerms}
	return g.ground(f, env)
}

type grounder struct {
	s      *rel.Structure
	ix     AtomNamer
	budget int
}

func (g *grounder) spend() error {
	g.budget--
	if g.budget < 0 {
		return fmt.Errorf("%w: grounding exceeds %d nodes", prop.ErrBudget, MaxGroundTerms)
	}
	return nil
}

func (g *grounder) ground(f Formula, env Env) (prop.Formula, error) {
	if err := g.spend(); err != nil {
		return nil, err
	}
	switch h := f.(type) {
	case Bool:
		if h {
			return prop.FTrue{}, nil
		}
		return prop.FFalse{}, nil
	case Atom:
		tup := make(rel.Tuple, len(h.Args))
		for i, t := range h.Args {
			e, err := resolveTerm(g.s, t, env)
			if err != nil {
				return nil, err
			}
			tup[i] = e
		}
		r := g.s.Rel(h.Rel)
		if r == nil {
			return nil, fmt.Errorf("logic: unknown relation %q", h.Rel)
		}
		if r.Arity != len(tup) {
			return nil, fmt.Errorf("logic: relation %s has arity %d, used with %d args", h.Rel, r.Arity, len(tup))
		}
		return prop.FVar(g.ix.ID(rel.GroundAtom{Rel: h.Rel, Args: tup})), nil
	case Eq:
		l, err := resolveTerm(g.s, h.L, env)
		if err != nil {
			return nil, err
		}
		r, err := resolveTerm(g.s, h.R, env)
		if err != nil {
			return nil, err
		}
		if l == r {
			return prop.FTrue{}, nil
		}
		return prop.FFalse{}, nil
	case Not:
		b, err := g.ground(h.F, env)
		if err != nil {
			return nil, err
		}
		return prop.FNot{F: b}, nil
	case And:
		parts := make(prop.FAnd, 0, len(h))
		for _, sub := range h {
			b, err := g.ground(sub, env)
			if err != nil {
				return nil, err
			}
			parts = append(parts, b)
		}
		return parts, nil
	case Or:
		parts := make(prop.FOr, 0, len(h))
		for _, sub := range h {
			b, err := g.ground(sub, env)
			if err != nil {
				return nil, err
			}
			parts = append(parts, b)
		}
		return parts, nil
	case Implies:
		return g.ground(Or{Not{h.L}, h.R}, env)
	case Iff:
		return g.ground(Or{And{h.L, h.R}, And{Not{h.L}, Not{h.R}}}, env)
	case Exists:
		return g.groundQuant(h.Vars, h.Body, env, true)
	case Forall:
		return g.groundQuant(h.Vars, h.Body, env, false)
	case SOQuant:
		return nil, fmt.Errorf("logic: cannot ground second-order quantifier over %s/%d", h.Rel, h.Arity)
	default:
		return nil, fmt.Errorf("logic: unknown formula node %T", f)
	}
}

func (g *grounder) groundQuant(vars []string, body Formula, env Env, existential bool) (prop.Formula, error) {
	env = env.Clone()
	count := rel.TupleCount(g.s.N, len(vars))
	if count < 0 {
		return nil, fmt.Errorf("%w: quantifier block of %d variables over universe %d", prop.ErrBudget, len(vars), g.s.N)
	}
	parts := make([]prop.Formula, 0, count)
	var innerErr error
	rel.ForEachTuple(g.s.N, len(vars), func(t rel.Tuple) bool {
		for i, v := range vars {
			env[v] = t[i]
		}
		b, err := g.ground(body, env)
		if err != nil {
			innerErr = err
			return false
		}
		parts = append(parts, b)
		return true
	})
	if innerErr != nil {
		return nil, innerErr
	}
	if existential {
		return prop.FOr(parts), nil
	}
	return prop.FAnd(parts), nil
}

// resolveTerm resolves a term against a structure and environment
// without an Evaluator.
func resolveTerm(s *rel.Structure, t Term, env Env) (int, error) {
	switch u := t.(type) {
	case Var:
		e, ok := env[string(u)]
		if !ok {
			return 0, fmt.Errorf("logic: unbound variable %q", u)
		}
		return e, nil
	case Const:
		e, ok := s.Consts[string(u)]
		if !ok {
			return 0, fmt.Errorf("logic: unknown constant %q", u)
		}
		return e, nil
	case Elem:
		e := int(u)
		if e < 0 || e >= s.N {
			return 0, fmt.Errorf("logic: element %d outside universe [0,%d)", e, s.N)
		}
		return e, nil
	default:
		return 0, fmt.Errorf("logic: unknown term %T", t)
	}
}
