package logic

import (
	"fmt"

	"qrel/internal/rel"
)

// Env assigns universe elements to first-order variables.
type Env map[string]int

// Clone returns a copy of the environment.
func (e Env) Clone() Env {
	c := make(Env, len(e))
	for k, v := range e {
		c[k] = v
	}
	return c
}

// MaxSOTuples bounds the tuple-space size n^arity over which a
// second-order quantifier enumerates relations (2^(n^arity) relations).
// Evaluation of second-order queries is necessarily exponential — they
// capture the polynomial-time hierarchy — so this is a hard safety
// budget, not a tunable.
const MaxSOTuples = 22

// Prepared is a formula resolved once for repeated evaluation. Every
// variable occurrence is bound lexically to a slot of an integer frame
// — the free variables, in FreeVars order, to slots 0..k-1 — and every
// constant and element to a slot filled when an evaluation starts; every
// vocabulary symbol an atom names is an index into a relation table
// filled from the structure once per evaluation; a second-order relation
// variable is one more slot, holding the enumerated relation as a bit
// mask over the tuples of A^arity. Evaluating an atom is then a rank
// computed from slots and one bit test of a dense relation (a key packed
// from slots and one probe of a sparse one): no name lookup, no tuple,
// no allocation.
//
// A Prepared is immutable: one may serve any number of goroutines and
// structures at once. Errors — an unbound variable, an unknown constant
// or relation, an arity mismatch — are reported only when evaluation
// reaches the offending node, with the same text on every path.
type Prepared struct {
	root *node
	free []string
	// args lists slots 0..k-1, the free variables' slots.
	args []int
	// terms holds, per slot, the Var, Const or Elem it stands for; nil
	// for quantified and relation-variable slots.
	terms []Term
	// fixed lists the slots of constants and elements.
	fixed []int
	// rels is the relation table: the vocabulary symbols atoms name.
	rels []string
}

type op uint8

const (
	opBool op = iota
	opAtom
	opSOAtom
	opEq
	opNot
	opAnd
	opOr
	opImplies
	opIff
	opQuant
	opSO
	opErr
)

// node is one resolved formula node.
type node struct {
	op op
	// b is the constant of opBool and whether opQuant and opSO are
	// existential.
	b bool
	// slots are the argument slots of opAtom, opSOAtom and opEq, and the
	// bound slots of opQuant.
	slots []int
	// ref is the relation table index of opAtom and the relation
	// variable's slot of opSOAtom and opSO.
	ref int
	// arity is the relation variable's arity, for opSO and opSOAtom.
	arity int
	// name is the relation symbol, for errors.
	name string
	// kids are the operands; a quantifier's body is kids[0].
	kids []*node
	// err is opErr's error, or a nested opSO's reuse of its variable.
	err error
}

// Prepare resolves f for evaluation.
func Prepare(f Formula) *Prepared {
	p := &Prepared{free: FreeVars(f)}
	r := resolver{p: p, vars: map[string]int{}, so: map[string]*node{}, rels: map[string]int{}, fixed: map[Term]int{}}
	for _, v := range p.free {
		s := r.slot(Var(v))
		p.args = append(p.args, s)
		r.vars[v] = s
	}
	p.root = r.formula(f)
	return p
}

// resolver carries the scopes of a Prepare walk.
type resolver struct {
	p     *Prepared
	vars  map[string]int   // first-order variables in scope
	so    map[string]*node // relation variables in scope
	rels  map[string]int   // relation table indices
	fixed map[Term]int     // constant and element slots
}

func (r *resolver) slot(t Term) int {
	r.p.terms = append(r.p.terms, t)
	return len(r.p.terms) - 1
}

func (r *resolver) term(t Term) int {
	if v, ok := t.(Var); ok {
		// A variable out of every quantifier's scope is free, and every
		// free variable has its slot from the start.
		return r.vars[string(v)]
	}
	s, ok := r.fixed[t]
	if !ok {
		s = r.slot(t)
		r.fixed[t] = s
		r.p.fixed = append(r.p.fixed, s)
	}
	return s
}

func (r *resolver) terms(ts ...Term) []int {
	out := make([]int, len(ts))
	for i, t := range ts {
		out[i] = r.term(t)
	}
	return out
}

func (r *resolver) formulas(op op, fs ...Formula) *node {
	n := &node{op: op, kids: make([]*node, len(fs))}
	for i, f := range fs {
		n.kids[i] = r.formula(f)
	}
	return n
}

func (r *resolver) formula(f Formula) *node {
	switch g := f.(type) {
	case Bool:
		return &node{op: opBool, b: bool(g)}
	case Atom:
		n := &node{op: opAtom, name: g.Rel, slots: r.terms(g.Args...)}
		if q, ok := r.so[g.Rel]; ok {
			n.op, n.ref, n.arity = opSOAtom, q.ref, q.arity
			return n
		}
		i, ok := r.rels[g.Rel]
		if !ok {
			i = len(r.p.rels)
			r.rels[g.Rel] = i
			r.p.rels = append(r.p.rels, g.Rel)
		}
		n.ref = i
		return n
	case Eq:
		return &node{op: opEq, slots: r.terms(g.L, g.R)}
	case Not:
		return r.formulas(opNot, g.F)
	case And:
		return r.formulas(opAnd, g...)
	case Or:
		return r.formulas(opOr, g...)
	case Implies:
		return r.formulas(opImplies, g.L, g.R)
	case Iff:
		return r.formulas(opIff, g.L, g.R)
	case Exists:
		return r.quant(g.Vars, g.Body, true)
	case Forall:
		return r.quant(g.Vars, g.Body, false)
	case SOQuant:
		n := &node{op: opSO, b: g.Exists, arity: g.Arity, name: g.Rel, ref: r.slot(nil)}
		if _, nested := r.so[g.Rel]; nested {
			n.err = fmt.Errorf("logic: nested second-order quantifiers reuse relation variable %q", g.Rel)
		}
		undo := rebind(r.so, g.Rel, n)
		n.kids = []*node{r.formula(g.Body)}
		undo()
		return n
	default:
		return &node{op: opErr, err: fmt.Errorf("logic: unknown formula node %T", f)}
	}
}

// quant resolves a block of like quantifiers: each position gets its
// own slot, so a name repeated in the block binds its last position.
func (r *resolver) quant(vars []string, body Formula, existential bool) *node {
	n := &node{op: opQuant, b: existential, slots: make([]int, len(vars))}
	undo := make([]func(), len(vars))
	for i, v := range vars {
		n.slots[i] = r.slot(nil)
		undo[i] = rebind(r.vars, v, n.slots[i])
	}
	n.kids = []*node{r.formula(body)}
	for i := len(undo) - 1; i >= 0; i-- {
		undo[i]()
	}
	return n
}

// rebind points name at v in scope m and returns the undo.
func rebind[V any](m map[string]V, name string, v V) func() {
	outer, ok := m[name]
	m[name] = v
	return func() {
		if ok {
			m[name] = outer
		} else {
			delete(m, name)
		}
	}
}

// Eval evaluates f on s under env. It is a one-shot wrapper around
// Prepare; evaluating one formula repeatedly should prepare it once.
func Eval(s *rel.Structure, f Formula, env Env) (bool, error) {
	p := Prepare(f)
	args := make([]int, len(p.free))
	for i, v := range p.free {
		e, ok := env[v]
		if !ok {
			e = -1
		}
		args[i] = e
	}
	return p.Holds(s, args)
}

// EvalSentence evaluates a sentence (no free variables, empty env).
func EvalSentence(s *rel.Structure, f Formula) (bool, error) {
	return Prepare(f).Holds(s, nil)
}

// Answer computes the query answer ψ^A = {ā ∈ A^k : A ⊨ ψ(ā)} for the
// free variables in FreeVars order. For a sentence it returns either one
// empty tuple (true) or none (false). It is a one-shot wrapper around
// Prepare.
func Answer(s *rel.Structure, f Formula) ([]rel.Tuple, error) {
	return Prepare(f).Answer(s)
}

// Holds reports whether s ⊨ ψ(args), args binding the free variables
// in FreeVars order. A negative argument leaves its variable unbound:
// evaluation fails if it reaches an occurrence.
func (p *Prepared) Holds(s *rel.Structure, args []int) (bool, error) {
	if len(args) != len(p.free) {
		return false, fmt.Errorf("logic: %d arguments for %d free variables", len(args), len(p.free))
	}
	var sb [frameSlots]int
	var rb [frameRels]*rel.Relation
	fr := p.bind(s, sb[:], rb[:])
	for i, e := range args {
		if e >= s.N {
			return false, fmt.Errorf("logic: variable %q bound to %d outside universe [0,%d)", p.free[i], e, s.N)
		}
		fr.slots[i] = e
	}
	return fr.eval(p.root)
}

// Truths evaluates ψ(ā) on s for every ā ∈ A^k, in rel.ForEachTuple
// order, and calls fn with each tuple's index in that order and its
// truth value: the answer ψ^s without materializing it. The relation
// table is bound once for the whole walk. It stops at the first error.
func (p *Prepared) Truths(s *rel.Structure, fn func(i int, holds bool)) error {
	var sb [frameSlots]int
	var rb [frameRels]*rel.Relation
	fr := p.bind(s, sb[:], rb[:])
	if len(p.args) > 0 && s.N == 0 {
		return nil
	}
	for _, a := range p.args {
		fr.slots[a] = 0
	}
	for i := 0; ; i++ {
		v, err := fr.eval(p.root)
		if err != nil {
			return err
		}
		fn(i, v)
		if !fr.next(p.args) {
			return nil
		}
	}
}

// Answer is ψ^s as a list of tuples; see the package-level Answer.
func (p *Prepared) Answer(s *rel.Structure) ([]rel.Tuple, error) {
	var out []rel.Tuple
	err := p.Truths(s, func(i int, holds bool) {
		if holds {
			t := make(rel.Tuple, len(p.args))
			for j := len(t) - 1; j >= 0; j-- {
				t[j], i = i%s.N, i/s.N
			}
			out = append(out, t)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// frameSlots and frameRels size the stack frame an evaluation starts
// with; a formula needing more spills to one heap frame per call.
const (
	frameSlots = 32
	frameRels  = 8
)

// frame is one evaluation's mutable state: the slot values, negative for
// an unbound variable, unknown constant or out-of-range element, and
// the relation table bound to the structure.
type frame struct {
	p     *Prepared
	n     int
	slots []int
	rels  []*rel.Relation
}

// bind starts an evaluation on s in the given buffers, growing them
// when the formula needs more.
func (p *Prepared) bind(s *rel.Structure, slots []int, rels []*rel.Relation) frame {
	if len(slots) < len(p.terms) {
		slots = make([]int, len(p.terms))
	}
	if len(rels) < len(p.rels) {
		rels = make([]*rel.Relation, len(p.rels))
	}
	fr := frame{p: p, n: s.N, slots: slots[:len(p.terms)], rels: rels[:len(p.rels)]}
	for i, name := range p.rels {
		fr.rels[i] = s.Rels[name]
	}
	for _, sl := range p.fixed {
		e := -1
		switch t := p.terms[sl].(type) {
		case Const:
			if c, ok := s.Consts[string(t)]; ok {
				e = c
			}
		case Elem:
			if int(t) >= 0 && int(t) < s.N {
				e = int(t)
			}
		}
		fr.slots[sl] = e
	}
	return fr
}

// termErr explains why slot holds no element.
func (fr *frame) termErr(slot int) error {
	switch t := fr.p.terms[slot].(type) {
	case Var:
		return fmt.Errorf("logic: unbound variable %q", t)
	case Const:
		return fmt.Errorf("logic: unknown constant %q", t)
	case Elem:
		return fmt.Errorf("logic: element %d outside universe [0,%d)", int(t), fr.n)
	default:
		return fmt.Errorf("logic: unknown term %T", t)
	}
}

func (fr *frame) eval(n *node) (bool, error) {
	switch n.op {
	case opBool:
		return n.b, nil
	case opAtom:
		// The tuple's bit in a dense relation; only a constant set
		// outside the universe makes it invalid.
		rank, inside := 0, true
		for _, sl := range n.slots {
			e := fr.slots[sl]
			if e < 0 {
				return false, fr.termErr(sl)
			}
			inside = inside && e < fr.n
			rank = rel.FoldRank(rank, fr.n, e)
		}
		r := fr.rels[n.ref]
		if r == nil {
			return false, fmt.Errorf("logic: unknown relation %q", n.name)
		}
		if r.Arity != len(n.slots) {
			return false, fmt.Errorf("logic: relation %s has arity %d, used with %d args", n.name, r.Arity, len(n.slots))
		}
		if r.Universe() == fr.n {
			return inside && r.ContainsRank(rank), nil
		}
		var key uint64
		for _, sl := range n.slots {
			key = key<<16 | uint64(fr.slots[sl])
		}
		return r.ContainsKey(key), nil
	case opSOAtom:
		// Tuple i of A^arity in rel.ForEachTuple order is bit i of the
		// relation variable's mask.
		idx := 0
		for _, sl := range n.slots {
			e := fr.slots[sl]
			if e < 0 {
				return false, fr.termErr(sl)
			}
			idx = idx*fr.n + e
		}
		if n.arity != len(n.slots) {
			return false, fmt.Errorf("logic: relation variable %s used with arity %d, bound with %d", n.name, len(n.slots), n.arity)
		}
		return fr.slots[n.ref]>>idx&1 == 1, nil
	case opEq:
		l, r := fr.slots[n.slots[0]], fr.slots[n.slots[1]]
		if l < 0 {
			return false, fr.termErr(n.slots[0])
		}
		if r < 0 {
			return false, fr.termErr(n.slots[1])
		}
		return l == r, nil
	case opNot:
		v, err := fr.eval(n.kids[0])
		return !v, err
	case opAnd:
		for _, k := range n.kids {
			v, err := fr.eval(k)
			if err != nil || !v {
				return false, err
			}
		}
		return true, nil
	case opOr:
		for _, k := range n.kids {
			v, err := fr.eval(k)
			if err != nil || v {
				return v, err
			}
		}
		return false, nil
	case opImplies:
		l, err := fr.eval(n.kids[0])
		if err != nil {
			return false, err
		}
		if !l {
			return true, nil
		}
		return fr.eval(n.kids[1])
	case opIff:
		l, err := fr.eval(n.kids[0])
		if err != nil {
			return false, err
		}
		r, err := fr.eval(n.kids[1])
		if err != nil {
			return false, err
		}
		return l == r, nil
	case opQuant:
		return fr.quant(n)
	case opSO:
		return fr.so(n)
	default:
		return false, n.err
	}
}

// quant evaluates a block of like first-order quantifiers by walking
// its slots through A^len(slots) in lexicographic order.
func (fr *frame) quant(n *node) (bool, error) {
	if len(n.slots) == 0 {
		return fr.eval(n.kids[0])
	}
	if fr.n == 0 {
		return !n.b, nil
	}
	for _, sl := range n.slots {
		fr.slots[sl] = 0
	}
	for {
		v, err := fr.eval(n.kids[0])
		if err != nil {
			return false, err
		}
		if v == n.b {
			return n.b, nil
		}
		if !fr.next(n.slots) {
			return !n.b, nil
		}
	}
}

// next advances slots to the lexicographically next tuple of A^len(slots),
// reporting false past the last one.
func (fr *frame) next(slots []int) bool {
	for i := len(slots) - 1; i >= 0; i-- {
		fr.slots[slots[i]]++
		if fr.slots[slots[i]] < fr.n {
			return true
		}
		fr.slots[slots[i]] = 0
	}
	return false
}

// so evaluates a second-order quantifier by enumerating all
// 2^(n^arity) relations of its arity as masks, in increasing order.
// Guarded by MaxSOTuples.
func (fr *frame) so(n *node) (bool, error) {
	if n.arity < 0 || n.arity > rel.MaxArity {
		return false, fmt.Errorf("logic: second-order arity %d out of range", n.arity)
	}
	space := rel.TupleCount(fr.n, n.arity)
	if space < 0 || space > MaxSOTuples {
		return false, fmt.Errorf("logic: second-order quantifier over %s/%d: tuple space %d exceeds budget %d",
			n.name, n.arity, space, MaxSOTuples)
	}
	if n.err != nil {
		return false, n.err
	}
	for mask := 0; mask < 1<<space; mask++ {
		fr.slots[n.ref] = mask
		v, err := fr.eval(n.kids[0])
		if err != nil {
			return false, err
		}
		if v == n.b {
			return n.b, nil
		}
	}
	return !n.b, nil
}
