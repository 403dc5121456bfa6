package core

import (
	"context"
	"fmt"
	"math/big"

	"qrel/internal/faultinject"
	"qrel/internal/logic"
	"qrel/internal/prop"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
	"qrel/internal/vm"
)

// maxTupleAtoms bounds the distinct ground atoms one tuple's ψ(ā) may
// mention: Proposition 3.1's "constant amount of work per tuple" is
// 2^that.
const maxTupleAtoms = 24

// QuantifierFree computes the exact reliability of a quantifier-free
// query in polynomial time (Proposition 3.1, de Rougemont): for each of
// the n^k tuples ā, the ground formula psi(ā) mentions at most n(psi)
// atoms, so its expected error is the sum over the truth assignments of
// those atoms — a constant amount of work per tuple.
//
// The matrix is compiled once (see matrix); per tuple only its atoms
// are looked up, the 2^d flips of the d uncertain ones are evaluated in
// one vm pass, and their probabilities are added as integers. With
// opts.Eval = EvalInterpreted, or when the matrix does not compile
// (recorded in FallbackTrail), every tuple is grounded and its
// assignments interpreted one by one instead. The per-tuple loop polls
// ctx.
func QuantifierFree(ctx context.Context, db *unreliable.DB, f logic.Formula, opts Options) (Result, error) {
	ctx = orBackground(ctx)
	opts = opts.withDefaults()
	if err := faultinject.Hit(faultinject.SiteQFree); err != nil {
		return Result{}, err
	}
	if !logic.IsQuantifierFree(f) {
		return Result{}, fmt.Errorf("core: QuantifierFree engine requires a quantifier-free query, got %v", logic.Classify(f))
	}
	res := Result{Engine: "qfree-exact", Class: logic.ClassQuantifierFree}
	var m *matrix
	if opts.Eval != EvalInterpreted {
		var err error
		if m, err = compileMatrix(db, f); err != nil {
			res.FallbackTrail = []FallbackStep{{Engine: "vm", Err: err.Error()}}
		}
	}
	var h *big.Rat
	var err error
	if m != nil {
		h, err = m.expectedError(ctx, db)
	} else {
		h, err = interpretedQFree(ctx, db, f)
	}
	if err != nil {
		return Result{}, err
	}
	setExact(&res, h, db.A.N, len(logic.FreeVars(f)))
	return res, nil
}

// matrix is a quantifier-free formula compiled for per-tuple
// evaluation: a vm program over slots, one per distinct relational or
// equality atom of the formula. Unlike a grounded program it does not
// depend on the tuple; a tuple only decides which ground atom each slot
// denotes. A matrix reads the flip indexes of one database snapshot,
// carries per-tuple scratch and serves one goroutine.
type matrix struct {
	prog     *vm.Program
	slots    []matrixSlot
	arity    int // number of free variables
	relSlots int // slots that denote relational atoms
}

// matrixSlot is one atom of the matrix; rel is nil for an equality
// between args[0] and args[1].
type matrixSlot struct {
	rel  *rel.Relation
	args []matrixTerm
	tup  rel.Tuple // the slot's ground arguments under the current tuple
	// flips is the relation's flip index, resolved once per request;
	// byRank is set when both it and the observed relation are dense,
	// so one rank addresses both.
	flips  *unreliable.Flips
	byRank bool
}

// matrixTerm is a component of the free-variable tuple (pos >= 0) or a
// fixed universe element.
type matrixTerm struct{ pos, elem int }

func (t matrixTerm) value(tuple rel.Tuple) int {
	if t.pos >= 0 {
		return tuple[t.pos]
	}
	return t.elem
}

// compileMatrix lowers f over the vocabulary and constants of db's
// observed structure. It mirrors logic.Ground's treatment of the
// connectives, with a slot where Ground would resolve an atom.
func compileMatrix(db *unreliable.DB, f logic.Formula) (*matrix, error) {
	if err := faultinject.Hit(faultinject.SiteVMCompile); err != nil {
		return nil, err
	}
	s := db.A
	vars := logic.FreeVars(f)
	m := &matrix{arity: len(vars)}
	slotOf := map[string]int{}
	term := func(t logic.Term) (matrixTerm, error) {
		switch u := t.(type) {
		case logic.Var:
			for i, v := range vars {
				if v == string(u) {
					return matrixTerm{pos: i}, nil
				}
			}
			return matrixTerm{}, fmt.Errorf("logic: unbound variable %q", u)
		case logic.Const:
			e, ok := s.Consts[string(u)]
			if !ok {
				return matrixTerm{}, fmt.Errorf("logic: unknown constant %q", u)
			}
			return matrixTerm{pos: -1, elem: e}, nil
		case logic.Elem:
			if int(u) < 0 || int(u) >= s.N {
				return matrixTerm{}, fmt.Errorf("logic: element %d outside universe [0,%d)", int(u), s.N)
			}
			return matrixTerm{pos: -1, elem: int(u)}, nil
		default:
			return matrixTerm{}, fmt.Errorf("logic: unknown term %T", t)
		}
	}
	slot := func(key string, r *rel.Relation, name string, ts ...logic.Term) (prop.Formula, error) {
		if id, ok := slotOf[key]; ok {
			return prop.FVar(id), nil
		}
		sl := matrixSlot{rel: r, tup: make(rel.Tuple, len(ts))}
		for _, t := range ts {
			mt, err := term(t)
			if err != nil {
				return nil, err
			}
			sl.args = append(sl.args, mt)
		}
		if r != nil {
			sl.flips = db.RelFlips(name)
			sl.byRank = r.Universe() == s.N && sl.flips.Dense()
			m.relSlots++
		}
		slotOf[key] = len(m.slots)
		m.slots = append(m.slots, sl)
		return prop.FVar(slotOf[key]), nil
	}
	var lower func(f logic.Formula) (prop.Formula, error)
	lowerAll := func(fs []logic.Formula) ([]prop.Formula, error) {
		out := make([]prop.Formula, len(fs))
		for i, g := range fs {
			var err error
			if out[i], err = lower(g); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	lower = func(f logic.Formula) (prop.Formula, error) {
		switch h := f.(type) {
		case logic.Bool:
			if h {
				return prop.FTrue{}, nil
			}
			return prop.FFalse{}, nil
		case logic.Atom:
			r := s.Rel(h.Rel)
			if r == nil {
				return nil, fmt.Errorf("logic: unknown relation %q", h.Rel)
			}
			if r.Arity != len(h.Args) {
				return nil, fmt.Errorf("logic: relation %s has arity %d, used with %d args", h.Rel, r.Arity, len(h.Args))
			}
			return slot(h.String(), r, h.Rel, h.Args...)
		case logic.Eq:
			return slot(h.String(), nil, "", h.L, h.R)
		case logic.Not:
			g, err := lower(h.F)
			return prop.FNot{F: g}, err
		case logic.And:
			gs, err := lowerAll(h)
			return prop.FAnd(gs), err
		case logic.Or:
			gs, err := lowerAll(h)
			return prop.FOr(gs), err
		case logic.Implies:
			return lower(logic.Or{logic.Not{F: h.L}, h.R})
		case logic.Iff:
			return lower(logic.Or{logic.And{h.L, h.R}, logic.And{logic.Not{F: h.L}, logic.Not{F: h.R}}})
		default:
			return nil, fmt.Errorf("vm: cannot compile %T in a quantifier-free matrix", f)
		}
	}
	pf, err := lower(f)
	if err != nil {
		return nil, err
	}
	if m.prog, err = vm.CompileProp(pf, len(m.slots)); err != nil {
		return nil, err
	}
	return m, nil
}

// expectedError computes H_psi(D) = Σ_ā Pr[psi(ā)^B ≠ psi(ā)^A]. Every
// flip probability is taken over L, the least common denominator of the
// mu values, so a tuple with d uncertain atoms contributes an integer
// over L^d; the integers are collected per d and normalised once.
func (m *matrix) expectedError(ctx context.Context, db *unreliable.DB) (*big.Rat, error) {
	scaled, lcm := db.WeightsOverLCM()
	ns := len(m.slots)
	var (
		obsCols = make([]uint64, ns) // each slot's observed truth value, one lane
		cols    = make([]uint64, ns) // each slot's truth value across a block of flips
		flipOf  = make([]int, ns)    // the tuple-local flip atom a slot reads, or -1
		invert  = make([]uint64, ns) // all ones where the slot is true with no flip
		atoms   = make([]int, 0, ns) // the tuple's distinct uncertain atoms
		tw      = unreliable.Weights{Keep: make([]*big.Int, ns), Flip: make([]*big.Int, ns), Den: make([]*big.Int, ns)}
		acc     = make([]big.Int, m.relSlots+1)
		stack   = m.prog.NewStack()
		e       = newFlipEnum(1)
		loopErr error
	)
	n := db.A.N
	rel.ForEachTuple(n, m.arity, func(t rel.Tuple) bool {
		if loopErr = ctx.Err(); loopErr != nil {
			return false
		}
		atoms = atoms[:0]
		for si := range m.slots {
			s := &m.slots[si]
			flipOf[si] = -1
			var observed, actual bool
			if s.rel == nil {
				observed = s.args[0].value(t) == s.args[1].value(t)
				actual = observed
			} else {
				for i, a := range s.args {
					s.tup[i] = a.value(t)
				}
				var i int
				var sure bool
				if s.byRank {
					r := 0
					for _, e := range s.tup {
						r = rel.FoldRank(r, n, e)
					}
					observed = s.rel.ContainsRank(r)
					i, sure = s.flips.IndexRank(r)
				} else {
					observed = s.rel.Contains(s.tup)
					i, sure = s.flips.Index(s.tup)
				}
				actual = observed != sure
				if i >= 0 {
					// Slots that ground to one atom share its flip column.
					flipOf[si] = localIndex(&atoms, i)
				}
			}
			obsCols[si], invert[si] = 0, 0
			if observed {
				obsCols[si] = 1
			}
			if actual {
				invert[si] = ^uint64(0)
			}
		}
		if m.relSlots > maxTupleAtoms {
			if nv := m.distinctAtoms(); nv > maxTupleAtoms {
				loopErr = tooManyAtomsError(nv)
				return false
			}
		}
		d := len(atoms)
		for j, i := range atoms {
			tw.Keep[j], tw.Flip[j], tw.Den[j] = scaled.Keep[i], scaled.Flip[i], scaled.Den[i]
		}
		e.reset(tw.Slice(0, d), 0)
		observed := -m.prog.EvalBatch(obsCols, 1, stack) // all ones iff psi(ā)^A
		for b := uint64(0); b < enumBlocks(d); b++ {
			if loopErr = ctx.Err(); loopErr != nil {
				return false
			}
			for si := range cols {
				c := invert[si]
				if flipOf[si] >= 0 {
					c ^= e.cols[flipOf[si]]
				}
				cols[si] = c & e.full
			}
			e.mark(m.prog.EvalBatch(cols, e.full, stack) ^ observed&e.full)
			e.endBlock(&acc[d])
		}
		return true
	})
	if loopErr != nil {
		return nil, loopErr
	}
	// Σ_d acc[d]/L^d over the common denominator L^D, by Horner.
	num, den := new(big.Int), big.NewInt(1)
	for d := range acc {
		num.Mul(num, lcm).Add(num, &acc[d])
		if d > 0 {
			den.Mul(den, lcm)
		}
	}
	return new(big.Rat).SetFrac(num, den), nil
}

// localIndex returns the position of atom i in *atoms, appending it on
// first sight.
func localIndex(atoms *[]int, i int) int {
	for j, a := range *atoms {
		if a == i {
			return j
		}
	}
	*atoms = append(*atoms, i)
	return len(*atoms) - 1
}

// distinctAtoms counts the distinct ground atoms the relational slots
// denote under the current tuple.
func (m *matrix) distinctAtoms() int {
	type atom struct {
		r   *rel.Relation
		key uint64
	}
	seen := make(map[atom]struct{}, m.relSlots)
	for si := range m.slots {
		if s := &m.slots[si]; s.rel != nil {
			seen[atom{s.rel, s.tup.Key()}] = struct{}{}
		}
	}
	return len(seen)
}

func tooManyAtomsError(nv int) error {
	return fmt.Errorf("core: quantifier-free query grounds to %d distinct atoms in one tuple; expected a small constant", nv)
}

// interpretedQFree is Proposition 3.1 computed literally: every tuple's
// psi(ā) is grounded afresh and the 2^n(psi) truth assignments of its
// atoms are interpreted one by one, their probabilities multiplied out
// as rationals. It backs QuantifierFree up when the matrix does not
// compile and is the reference the compiled path is tested against.
func interpretedQFree(ctx context.Context, db *unreliable.DB, f logic.Formula) (*big.Rat, error) {
	one := big.NewRat(1, 1)
	h := new(big.Rat)
	_, err := forEachFreeTuple(ctx, db.A, f, func(env logic.Env, _ rel.Tuple) error {
		// Ground psi(ā) over a fresh per-tuple atom index: at most
		// n(psi) variables regardless of database size.
		ix := logic.NewAtomIndex()
		pf, err := logic.Ground(db.A, f, env, ix)
		if err != nil {
			return err
		}
		nv := ix.Len()
		if nv > maxTupleAtoms {
			return tooManyAtomsError(nv)
		}
		// Observed truth value.
		obs := make([]bool, nv)
		for i, atom := range ix.Atoms() {
			obs[i] = db.A.Holds(atom.Rel, atom.Args)
		}
		observed := pf.Eval(obs)
		// Probability that each atom holds in the actual database.
		nu := nuAssignment(db, ix)
		// Sum the probability of all assignments where the value differs.
		a := make([]bool, nv)
		for m := uint64(0); m < uint64(1)<<uint(nv); m++ {
			for i := range a {
				a[i] = m&(1<<uint(i)) != 0
			}
			if pf.Eval(a) == observed {
				continue
			}
			w := new(big.Rat).Set(one)
			for i, v := range a {
				if v {
					w.Mul(w, nu[i])
				} else {
					w.Mul(w, new(big.Rat).Sub(one, nu[i]))
				}
			}
			h.Add(h, w)
		}
		return nil
	})
	return h, err
}
