// Package safeplan implements the extensional ("safe plan") evaluation
// of conjunctive queries on tuple-independent probabilistic databases:
// for *hierarchical* queries without self-joins, the probability
// Pr[B ⊨ psi(ā)] is computed exactly in polynomial time by
// independent-join and independent-project steps (Dalvi & Suciu's
// dichotomy, VLDB 2004 — the direct successor of this paper's
// complexity study).
//
// The connection to the paper: Proposition 3.2's hard query
// ∃x∃y∃z (Lxy ∧ Rxz ∧ Sy ∧ Sz) is non-hierarchical — sg(y) = {L, S*}
// and sg(z) = {R, S*} overlap without containment — so the safe-plan
// evaluator rejects it, exactly where #P-hardness begins. Hierarchical
// queries, by contrast, are evaluated exactly at sizes far beyond any
// enumeration or BDD engine (experiment E12).
//
// The plan is compiled from the query alone and evaluated over the
// support: per atom, the sorted rows that are observed or have mu > 0.
// Every ground atom outside them has nu = 0 and is false in A, so it
// contributes a factor 1 − 0 to a projection and nothing to an answer.
package safeplan

import (
	"cmp"
	"context"
	"fmt"
	"math/big"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"qrel/internal/logic"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// Query is a conjunctive query without self-joins — existentially
// quantified variables over a conjunction of relational atoms, each
// relation name occurring at most once — together with its safe plan.
// A Query is immutable once built.
type Query struct {
	// Free are the free variables, the answer columns, in
	// logic.FreeVars order.
	Free  []string
	Atoms []logic.Atom

	plan   []planAtom
	levels []group // levels[i] binds Free[i] in the atoms containing it
	comps  []*node // the components left once Free is bound
	nodes  int     // frames an evaluation needs: one per node, 0 for the join of comps
	unsafe error   // ErrNotHierarchical when the query has no safe plan
}

// planAtom is a query atom with its distinct variables in plan order,
// outermost first: free variables in answer order, then quantified
// variables by descending subgoal-set size, ties by name. The root
// variable of a component is then the next column of each of its atoms.
type planAtom struct {
	rel  string
	vars []string
	pos  []int // pos[j] is the first argument position of vars[j]
	elem []int // elem[i] ≥ 0: argument i is that element; -1: a variable
	same []int // same[i] is the first position of argument i's variable
}

// group is a set of atoms about to bind one variable: column col[i] of
// atoms[i].
type group struct{ atoms, col []int }

// node is a component of the plan: atoms linked by unbound variables.
// Binding the root — the group's column — leaves the components kids;
// a ground atom has none.
type node struct {
	group
	id    int
	kids  []*node
	outer bool // a component of the whole query: its loop polls ctx
}

// ErrNotHierarchical is wrapped in errors returned for queries outside
// the safe fragment.
var ErrNotHierarchical = fmt.Errorf("safeplan: query is not hierarchical (reliability is #P-hard)")

// FromFormula extracts a Query from a formula, validating that it is a
// conjunctive query (∃* over a conjunction of relational atoms) of at
// most 64 atoms without self-joins, equalities or named constants, and
// compiles its plan. Whether the query is safe depends on the query
// alone; an unsafe one is returned, reports !IsHierarchical, and fails
// every evaluation with ErrNotHierarchical.
func FromFormula(f logic.Formula) (*Query, error) {
	body := f
	for {
		e, ok := body.(logic.Exists)
		if !ok {
			break
		}
		body = e.Body
	}
	q := &Query{}
	if err := collectAtoms(body, q); err != nil {
		return nil, err
	}
	if len(q.Atoms) == 0 {
		return nil, fmt.Errorf("safeplan: empty query")
	}
	if len(q.Atoms) > 64 {
		return nil, fmt.Errorf("safeplan: %d atoms, at most 64 supported", len(q.Atoms))
	}
	seen := map[string]bool{}
	for _, a := range q.Atoms {
		if seen[a.Rel] {
			return nil, fmt.Errorf("safeplan: self-join on %s (the dichotomy requires distinct relations)", a.Rel)
		}
		seen[a.Rel] = true
		for _, t := range a.Args {
			switch u := t.(type) {
			case logic.Var:
			case logic.Elem:
				if u < 0 {
					return nil, fmt.Errorf("safeplan: negative element %d", int(u))
				}
			default:
				return nil, fmt.Errorf("safeplan: unsupported term %v (only variables and elements)", t)
			}
		}
	}
	q.Free = logic.FreeVars(f)
	q.compile()
	return q, nil
}

func collectAtoms(f logic.Formula, q *Query) error {
	switch g := f.(type) {
	case logic.Atom:
		q.Atoms = append(q.Atoms, g)
		return nil
	case logic.And:
		for _, h := range g {
			if err := collectAtoms(h, q); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("safeplan: query is not a conjunction of relational atoms (found %T)", f)
	}
}

// String renders the query as a conjunction.
func (q *Query) String() string {
	parts := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, " & ")
}

// IsHierarchical reports whether the query is hierarchical: for every
// pair of quantified variables, their subgoal sets are nested or
// disjoint (free variables are constants of each instantiation psi(ā)).
// By the Dalvi–Suciu dichotomy this characterizes exactly the
// PTIME-computable conjunctive queries (without self-joins) on
// tuple-independent databases; everything else is #P-hard.
func (q *Query) IsHierarchical() bool { return q.unsafe == nil }

// compile orders the variables, lays out every atom's columns and
// builds the plan tree, or records why there is none.
func (q *Query) compile() {
	sg := map[string]uint64{} // subgoal sets, as bitmasks over Atoms
	for i, a := range q.Atoms {
		for _, t := range a.Args {
			if v, ok := t.(logic.Var); ok {
				sg[string(v)] |= 1 << uint(i)
			}
		}
	}
	free := make(map[string]int, len(q.Free))
	for i, v := range q.Free {
		free[v] = i
	}
	before := func(v, w string) bool { // v is bound at an outer level of the plan, w further in
		lv, fv := free[v]
		lw, fw := free[w]
		if fv || fw {
			return fv && (!fw || lv < lw)
		}
		if n, m := bits.OnesCount64(sg[v]), bits.OnesCount64(sg[w]); n != m {
			return n > m
		}
		return v < w
	}

	q.plan = make([]planAtom, len(q.Atoms))
	q.levels = make([]group, len(q.Free))
	depth := make([]int, len(q.Atoms)) // columns bound so far, per atom
	var all []int
	for i, a := range q.Atoms {
		pa := planAtom{rel: a.Rel, elem: make([]int, len(a.Args)), same: make([]int, len(a.Args))}
		first := map[string]int{}
		for j, t := range a.Args {
			pa.elem[j], pa.same[j] = -1, j
			switch u := t.(type) {
			case logic.Elem:
				pa.elem[j] = int(u)
			case logic.Var:
				if p, ok := first[string(u)]; ok {
					pa.same[j] = p
				} else {
					first[string(u)] = j
					pa.vars = append(pa.vars, string(u))
				}
			}
		}
		sort.Slice(pa.vars, func(x, y int) bool { return before(pa.vars[x], pa.vars[y]) })
		for _, v := range pa.vars {
			pa.pos = append(pa.pos, first[v])
			if l, ok := free[v]; ok {
				q.levels[l].atoms = append(q.levels[l].atoms, i)
				q.levels[l].col = append(q.levels[l].col, depth[i])
				depth[i]++
			}
		}
		q.plan[i] = pa
		all = append(all, i)
	}
	q.nodes = 1
	q.comps, q.unsafe = q.split(all, depth, sg, true)
}

// split partitions atoms, each with its first depth[a] columns bound,
// into the components its unbound variables link, and plans each. In a
// hierarchical query a component's atoms all start with its root, so
// grouping by next column finds the components; the query is unsafe
// exactly when some group shares a deeper variable with an atom outside
// it.
func (q *Query) split(atoms, depth []int, sg map[string]uint64, outer bool) ([]*node, error) {
	var out []*node
	byRoot := map[string]*node{}
	for _, a := range atoms {
		root := ""
		if vars := q.plan[a].vars; depth[a] < len(vars) {
			root = vars[depth[a]]
		}
		n := byRoot[root]
		if n == nil || root == "" { // ground atoms are components of their own
			n = &node{id: q.nodes, outer: outer}
			q.nodes++
			byRoot[root] = n
			out = append(out, n)
		}
		n.atoms = append(n.atoms, a)
		n.col = append(n.col, depth[a])
	}
	for _, n := range out {
		if depth[n.atoms[0]] == len(q.plan[n.atoms[0]].vars) {
			continue
		}
		var mask uint64
		for _, a := range n.atoms {
			mask |= 1 << uint(a)
		}
		for _, a := range n.atoms {
			for _, v := range q.plan[a].vars[depth[a]:] {
				if sg[v]&^mask != 0 {
					return nil, fmt.Errorf("%w: the component of %s has no root variable", ErrNotHierarchical, v)
				}
			}
			depth[a]++
		}
		var err error
		if n.kids, err = q.split(n.atoms, depth, sg, false); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// row is a support row of a query atom: a ground atom that is observed
// or has mu > 0, matches the atom's constants and repeated variables,
// and is projected to its variables in plan order, 16 bits each.
type row struct {
	key      uint64
	mu       int32 // index among the uncertain atoms, or sure / certain
	observed bool
}

// The mu classes of a row besides an uncertain index, ordered so that
// merging an observed tuple with its mu > 0 entry keeps the larger.
const (
	sure    = -1 // mu = 1
	certain = -2 // mu = 0
)

var zero, one = new(big.Int), big.NewInt(1)

// match reports whether t instantiates the atom and returns its key.
func (a *planAtom) match(t rel.Tuple) (uint64, bool) {
	for i, e := range a.elem {
		if e >= 0 && t[i] != e || t[i] != t[a.same[i]] {
			return 0, false
		}
	}
	var k uint64
	for _, p := range a.pos {
		k = k<<16 | uint64(t[p])
	}
	return k, true
}

// column returns column d of a key of the atom.
func (a *planAtom) column(key uint64, d int) int {
	return int(key >> (16 * uint(len(a.vars)-1-d)) & 0xffff)
}

type span struct{ lo, hi int }

// frame is the integer scratch of one plan node.
type frame struct{ num, den, fail, diff, joinNum, joinDen big.Int }

// run is one evaluation of a plan over a database.
type run struct {
	ctx     context.Context
	q       *Query
	weights unreliable.Weights
	rows    [][]row
	// spans[a][d] are the rows of atom a that agree with the values
	// bound to its first d columns.
	spans  [][]span
	frames []frame
	tuple  rel.Tuple
	visit  func(rel.Tuple, *big.Int, *big.Int, bool)
	err    error
}

// Eval calls visit for the answer tuples ā that some support row of
// every atom admits, with Pr[B ⊨ psi(ā)] as an unreduced fraction
// num/den and the observed truth of psi(ā) in A; for every tuple not
// visited both are zero. The arguments of visit are reused between
// calls. Eval polls ctx per free tuple and per root value of the
// outermost projections.
func (q *Query) Eval(ctx context.Context, db *unreliable.DB, visit func(tuple rel.Tuple, num, den *big.Int, observed bool)) error {
	if q.unsafe != nil {
		return q.unsafe
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	e := &run{ctx: ctx, q: q, weights: db.Weights(), visit: visit,
		rows: make([][]row, len(q.plan)), spans: make([][]span, len(q.plan)),
		frames: make([]frame, q.nodes), tuple: make(rel.Tuple, len(q.Free))}
	uncertain, sureFlips := db.UncertainAtoms(), db.SureFlips()
	for i := range q.plan {
		a := &q.plan[i]
		r := db.A.Rel(a.rel)
		if r == nil || r.Arity != len(a.same) {
			return fmt.Errorf("safeplan: atom %v does not fit the database vocabulary", q.Atoms[i])
		}
		for _, el := range a.elem {
			if el >= db.A.N {
				return fmt.Errorf("safeplan: element %d outside universe [0,%d)", el, db.A.N)
			}
		}
		var rows []row
		r.ForEach(func(t rel.Tuple) bool {
			if k, ok := a.match(t); ok {
				rows = append(rows, row{key: k, mu: certain, observed: true})
			}
			return true
		})
		rows = a.appendFlips(rows, uncertain, false)
		rows = a.appendFlips(rows, sureFlips, true)
		// An observed tuple with mu > 0 is there twice: merge the pair.
		slices.SortFunc(rows, func(x, y row) int { return cmp.Compare(x.key, y.key) })
		merged := rows[:0]
		for _, x := range rows {
			if n := len(merged); n > 0 && merged[n-1].key == x.key {
				merged[n-1].mu = max(merged[n-1].mu, x.mu)
				merged[n-1].observed = true
				continue
			}
			merged = append(merged, x)
		}
		e.rows[i] = merged
		e.spans[i] = make([]span, len(a.vars)+1)
		e.spans[i][0] = span{0, len(merged)}
	}
	e.level(0)
	return e.err
}

// appendFlips appends the rows of the atom's relation among flips: the
// uncertain atoms, or the mu = 1 ones if isSure, in canonical order
// (relation name, then tuple).
func (a *planAtom) appendFlips(rows []row, flips []rel.GroundAtom, isSure bool) []row {
	lo := sort.Search(len(flips), func(i int) bool { return flips[i].Rel >= a.rel })
	for i := lo; i < len(flips) && flips[i].Rel == a.rel; i++ {
		if k, ok := a.match(flips[i].Args); ok {
			mu := int32(i)
			if isSure {
				mu = sure
			}
			rows = append(rows, row{key: k, mu: mu})
		}
	}
	return rows
}

// nu returns nu of a row as the fraction num/den. The values are the
// database's: read-only.
func (e *run) nu(r row) (num, den *big.Int) {
	switch {
	case r.mu >= 0 && r.observed:
		return e.weights.Keep[r.mu], e.weights.Den[r.mu]
	case r.mu >= 0:
		return e.weights.Flip[r.mu], e.weights.Den[r.mu]
	case r.observed == (r.mu == certain): // observed and right, or absent and wrong
		return one, one
	}
	return zero, one
}

// level binds Free[i:] to every combination the rows admit and visits
// the tuples.
func (e *run) level(i int) {
	if i == len(e.q.levels) {
		num, den, observed := e.join(e.q.comps, &e.frames[0].joinNum, &e.frames[0].joinDen)
		if e.err == nil {
			e.visit(e.tuple, num, den, observed)
		}
		return
	}
	e.each(e.q.levels[i], true, func(v int) {
		e.tuple[i] = v
		e.level(i + 1)
	})
}

// each narrows the spans of g's atoms to every value their next columns
// share, in ascending order, and calls fn: it walks the distinct values
// of the smallest span and binary-searches the others.
func (e *run) each(g group, poll bool, fn func(v int)) {
	width := func(i int) int {
		sp := e.spans[g.atoms[i]][g.col[i]]
		return sp.hi - sp.lo
	}
	s := 0
	for i := range g.atoms {
		if width(i) < width(s) {
			s = i
		}
	}
	a, d := &e.q.plan[g.atoms[s]], g.col[s]
	rows, sp := e.rows[g.atoms[s]], e.spans[g.atoms[s]][d]
	for i := sp.lo; i < sp.hi; {
		if poll && e.err == nil {
			e.err = e.ctx.Err()
		}
		if e.err != nil {
			return
		}
		v := a.column(rows[i].key, d)
		j := i + 1
		for j < sp.hi && a.column(rows[j].key, d) == v {
			j++
		}
		e.spans[g.atoms[s]][d+1] = span{i, j}
		i = j
		shared := true
		for k := range g.atoms {
			if k != s && !e.seek(g.atoms[k], g.col[k], v) {
				shared = false
				break
			}
		}
		if shared {
			fn(v)
		}
	}
}

// seek narrows atom b's span at column d to value v and reports whether
// any row is left.
func (e *run) seek(b, d, v int) bool {
	a, rows, sp := &e.q.plan[b], e.rows[b], e.spans[b][d]
	lo := sp.lo + sort.Search(sp.hi-sp.lo, func(i int) bool { return a.column(rows[sp.lo+i].key, d) >= v })
	hi := lo
	for hi < sp.hi && a.column(rows[hi].key, d) == v {
		hi++
	}
	e.spans[b][d+1] = span{lo, hi}
	return lo < hi
}

// join is the independent join: variable-disjoint components refer to
// disjoint sets of ground atoms (no self-joins), so their probabilities
// multiply and their observed truths conjoin.
func (e *run) join(kids []*node, num, den *big.Int) (*big.Int, *big.Int, bool) {
	if len(kids) == 1 {
		return e.eval(kids[0])
	}
	num.SetInt64(1)
	den.SetInt64(1)
	observed := true
	for _, k := range kids {
		n, d, o := e.eval(k)
		num.Mul(num, n)
		den.Mul(den, d)
		observed = observed && o
	}
	return num, den, observed
}

// eval returns the probability of a component as an unreduced fraction
// and its observed truth. A ground atom has nu of its row. Otherwise
// the root occurs in every atom, which makes its instantiations
// independent (independent project):
//
//	Pr = 1 − Π_v (1 − Pr[component[root := v]]),
//
// over the root values v that every atom's rows share, since any other
// instantiation has probability 0. With Pr[v] = n_v/d_v that is
// (Π d_v − Π (d_v − n_v)) / Π d_v, in integers.
func (e *run) eval(n *node) (num, den *big.Int, observed bool) {
	if n.kids == nil {
		sp := e.spans[n.atoms[0]][n.col[0]]
		if sp.lo == sp.hi {
			return zero, one, false
		}
		r := e.rows[n.atoms[0]][sp.lo]
		num, den = e.nu(r)
		return num, den, r.observed
	}
	f := &e.frames[n.id]
	f.fail.SetInt64(1)
	f.den.SetInt64(1)
	e.each(n.group, n.outer, func(int) {
		pn, pd, o := e.join(n.kids, &f.joinNum, &f.joinDen)
		f.fail.Mul(&f.fail, f.diff.Sub(pd, pn))
		f.den.Mul(&f.den, pd)
		observed = observed || o
	})
	return f.num.Sub(&f.den, &f.fail), &f.den, observed
}

// Prob computes Pr[B ⊨ q] for a Boolean query exactly, in time
// polynomial in the support of the database.
func (q *Query) Prob(ctx context.Context, db *unreliable.DB) (*big.Rat, error) {
	if len(q.Free) != 0 {
		return nil, fmt.Errorf("safeplan: Prob needs a Boolean query, has free variables %v", q.Free)
	}
	p := new(big.Rat)
	err := q.Eval(ctx, db, func(_ rel.Tuple, num, den *big.Int, _ bool) { p.SetFrac(num, den) })
	return p, err
}
