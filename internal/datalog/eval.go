package datalog

import (
	"fmt"

	"qrel/internal/rel"
)

// MaxIterations caps the fix-point loop as a defensive bound; the
// semi-naive iteration terminates after at most n^arity rounds per
// stratum on well-formed inputs.
const MaxIterations = 1 << 20

// Eval computes the IDB relations of the program on the given EDB
// structure by stratum-wise semi-naive bottom-up evaluation. Every
// non-head predicate must exist in the EDB with matching arity; IDB
// predicates may not shadow EDB relations.
func (p *Program) Eval(edb *rel.Structure) (map[string]*rel.Relation, error) {
	a, err := p.analyse(edb.Voc)
	if err != nil {
		return nil, err
	}
	return a.eval(edb)
}

// analysis is a program checked against a vocabulary and cut into
// strata: everything evaluation needs that no tuple of the EDB changes.
// An estimator analyses once and evaluates every sampled world, which
// shares the observed database's vocabulary.
type analysis struct {
	heads  map[string]int // IDB predicate -> arity
	strata []stratum
}

// stratum is one layer of the stratification: its predicates and the
// rules that derive them.
type stratum struct {
	in    map[string]bool
	rules []Rule
}

// analyse validates the program, checks its EDB predicates against voc
// (present, with the arity the program uses, not shadowed by an IDB
// predicate) and stratifies it.
func (p *Program) analyse(voc *rel.Vocabulary) (*analysis, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	arity := map[string]int{}
	for _, r := range p.Rules {
		arity[r.Head.Pred] = len(r.Head.Args)
		for _, l := range r.Body {
			arity[l.Atom.Pred] = len(l.Atom.Args)
		}
	}
	a := &analysis{heads: map[string]int{}}
	// Check EDB predicates and IDB shadowing.
	for pred, k := range arity {
		r, inEDB := voc.Rel(pred)
		if p.isIDB(pred) {
			if inEDB {
				return nil, fmt.Errorf("datalog: IDB predicate %s shadows an EDB relation", pred)
			}
			a.heads[pred] = k
			continue
		}
		if !inEDB {
			return nil, fmt.Errorf("datalog: EDB relation %q not in database", pred)
		}
		if r.Arity != k {
			return nil, fmt.Errorf("datalog: EDB relation %s has arity %d, program uses %d", pred, r.Arity, k)
		}
	}
	layers, err := p.Stratify()
	if err != nil {
		return nil, err
	}
	for _, layer := range layers {
		s := stratum{in: map[string]bool{}}
		for _, pred := range layer {
			s.in[pred] = true
		}
		for _, r := range p.Rules {
			if s.in[r.Head.Pred] {
				s.rules = append(s.rules, r)
			}
		}
		a.strata = append(a.strata, s)
	}
	return a, nil
}

// eval computes the IDB relations on edb, whose vocabulary is the one
// the program was analysed against.
func (a *analysis) eval(edb *rel.Structure) (map[string]*rel.Relation, error) {
	idb := make(map[string]*rel.Relation, len(a.heads))
	for pred, k := range a.heads {
		idb[pred] = rel.NewRelation(k)
	}
	ev := &evaluator{edb: edb, idb: idb}
	for _, s := range a.strata {
		if err := ev.fixpoint(s.rules, s.in); err != nil {
			return nil, err
		}
	}
	return idb, nil
}

type evaluator struct {
	edb *rel.Structure
	idb map[string]*rel.Relation
}

// relation resolves a predicate to its current relation.
func (ev *evaluator) relation(pred string) *rel.Relation {
	if r, ok := ev.idb[pred]; ok {
		return r
	}
	return ev.edb.Rel(pred)
}

// fixpoint runs semi-naive iteration for one stratum's rules.
func (ev *evaluator) fixpoint(rules []Rule, inStratum map[string]bool) error {
	// Round 0: evaluate every rule against the full current relations.
	delta := map[string]*rel.Relation{}
	addDelta := func(pred string, t rel.Tuple) {
		full := ev.idb[pred]
		if full.Contains(t) {
			return
		}
		full.Add(t)
		if delta[pred] == nil {
			delta[pred] = rel.NewRelation(len(t))
		}
		delta[pred].Add(t)
	}
	for _, r := range rules {
		if err := ev.applyRule(r, -1, nil, addDelta); err != nil {
			return err
		}
	}
	// Delta rounds: any new derivation must use at least one tuple from
	// the previous round's delta in some in-stratum positive position.
	for iter := 0; len(delta) > 0; iter++ {
		if iter > MaxIterations {
			return fmt.Errorf("datalog: fixpoint exceeded %d iterations", MaxIterations)
		}
		prev := delta
		delta = map[string]*rel.Relation{}
		addDelta = func(pred string, t rel.Tuple) {
			full := ev.idb[pred]
			if full.Contains(t) {
				return
			}
			full.Add(t)
			if delta[pred] == nil {
				delta[pred] = rel.NewRelation(len(t))
			}
			delta[pred].Add(t)
		}
		for _, r := range rules {
			for i, l := range r.Body {
				if l.Negated || !inStratum[l.Atom.Pred] {
					continue
				}
				d := prev[l.Atom.Pred]
				if d == nil || d.Len() == 0 {
					continue
				}
				if err := ev.applyRule(r, i, d, addDelta); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// applyRule enumerates the satisfying bindings of the rule body and
// emits head tuples. When deltaPos >= 0, the literal at that index
// ranges over deltaRel instead of its full relation.
func (ev *evaluator) applyRule(r Rule, deltaPos int, deltaRel *rel.Relation, emit func(string, rel.Tuple)) error {
	bind := map[string]int{}
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(r.Body) {
			t := make(rel.Tuple, len(r.Head.Args))
			for j, arg := range r.Head.Args {
				if arg.IsVar() {
					t[j] = bind[arg.Var]
				} else {
					if arg.Elem < 0 || arg.Elem >= ev.edb.N {
						return fmt.Errorf("datalog: element %d outside universe [0,%d)", arg.Elem, ev.edb.N)
					}
					t[j] = arg.Elem
				}
			}
			emit(r.Head.Pred, t)
			return nil
		}
		l := r.Body[i]
		if l.Negated {
			// Safety guarantees all variables are bound.
			t := make(rel.Tuple, len(l.Atom.Args))
			for j, arg := range l.Atom.Args {
				if arg.IsVar() {
					t[j] = bind[arg.Var]
				} else {
					t[j] = arg.Elem
				}
			}
			if ev.relation(l.Atom.Pred).Contains(t) {
				return nil
			}
			return rec(i + 1)
		}
		src := ev.relation(l.Atom.Pred)
		if i == deltaPos {
			src = deltaRel
		}
		var innerErr error
		src.ForEach(func(t rel.Tuple) bool {
			var bound []string
			ok := true
			for j, arg := range l.Atom.Args {
				if !arg.IsVar() {
					if t[j] != arg.Elem {
						ok = false
						break
					}
					continue
				}
				if v, exists := bind[arg.Var]; exists {
					if v != t[j] {
						ok = false
						break
					}
					continue
				}
				bind[arg.Var] = t[j]
				bound = append(bound, arg.Var)
			}
			if ok {
				if err := rec(i + 1); err != nil {
					innerErr = err
					return false
				}
			}
			for _, v := range bound {
				delete(bind, v)
			}
			return true
		})
		return innerErr
	}
	return rec(0)
}

// Query evaluates the program and returns the tuples of the query
// atom's predicate matching its pattern (variables are wildcards that
// must agree on repetition; elements must match exactly).
func (p *Program) Query(edb *rel.Structure, q Atom) ([]rel.Tuple, error) {
	a, err := p.analyse(edb.Voc)
	if err != nil {
		return nil, err
	}
	return a.query(edb, q)
}

// query is Query on an analysed program.
func (a *analysis) query(edb *rel.Structure, q Atom) ([]rel.Tuple, error) {
	idb, err := a.eval(edb)
	if err != nil {
		return nil, err
	}
	r, ok := idb[q.Pred]
	if !ok {
		if r = edb.Rel(q.Pred); r == nil {
			return nil, fmt.Errorf("datalog: unknown predicate %q", q.Pred)
		}
	}
	if r.Arity != len(q.Args) {
		return nil, fmt.Errorf("datalog: %s has arity %d, pattern has %d", q.Pred, r.Arity, len(q.Args))
	}
	var out []rel.Tuple
	for _, t := range r.Tuples() {
		bind := map[string]int{}
		ok := true
		for j, arg := range q.Args {
			if arg.IsVar() {
				if v, exists := bind[arg.Var]; exists && v != t[j] {
					ok = false
					break
				}
				bind[arg.Var] = t[j]
				continue
			}
			if t[j] != arg.Elem {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, t)
		}
	}
	return out, nil
}

// Holds evaluates the program and reports whether the ground query atom
// is derived.
func (p *Program) Holds(edb *rel.Structure, q Atom) (bool, error) {
	for _, t := range q.Args {
		if t.IsVar() {
			return false, fmt.Errorf("datalog: Holds requires a ground atom, got %s", q)
		}
	}
	matches, err := p.Query(edb, q)
	if err != nil {
		return false, err
	}
	return len(matches) > 0, nil
}
