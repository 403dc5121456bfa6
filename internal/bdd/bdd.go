// Package bdd implements reduced ordered binary decision diagrams with
// exact weighted model counting over big.Rat probabilities. It is the
// exact lineage-evaluation engine: the probability nu(psi”) of a
// grounded query (Theorem 5.4) is computed by compiling the lineage DNF
// to a BDD and performing one bottom-up weighted count. This is the
// standard exact baseline that the Karp–Luby FPTRAS is compared against
// in the E6/E10 experiments.
package bdd

import (
	"context"
	"fmt"
	"math/big"
	"sort"

	"qrel/internal/prop"
)

// Terminal node identifiers.
const (
	False = 0
	True  = 1
)

type node struct {
	v      int // level of the node's variable; numVars for terminals
	lo, hi int
}

// BDD is a multi-rooted reduced ordered BDD over a fixed number of
// variables. The variable order belongs to the manager: the first
// FromDNF on a manager without internal nodes chooses it from that
// DNF's term–variable incidence (see chooseOrder); a manager first used
// any other way keeps the indexing order 0 < 1 < ... < numVars-1.
// Callers pass and read their own variable indices either way; levels
// never leave the package. The zero value is not usable; construct
// with New.
type BDD struct {
	numVars int
	nodes   []node
	unique  map[node]int
	cache   map[uint64]int // packed (op, a, b) -> node, see applyKey
	maxNode int

	// level[v] is the level of variable v and varAt its inverse; both
	// nil stand for the identity.
	level, varAt []int

	// ctx, when set via WithContext, is polled every ctxCheckEvery node
	// allocations and every ctxCheckEvery nodes a count visits, so
	// runaway work stops soon after cancellation.
	ctx      context.Context
	ctxCount int
}

// ctxCheckEvery is the stride between context polls: frequent enough
// that cancellation latency is microseconds, rare enough to stay off
// the profile.
const ctxCheckEvery = 1024

// Binary operation codes for the apply cache.
const (
	opAnd = iota
	opOr
	opNot
)

// applyKey packs an apply-cache entry (op, x, y) into one uint64: the
// op in the top two bits, the operands in 31 bits each. Node ids are
// bounded by the node budget, which the int32-sized cache has always
// capped below 2^31, so the packing is collision-free — and a uint64
// map key hashes without the memory loads of an array key.
func applyKey(op, x, y int) uint64 {
	return uint64(op)<<62 | uint64(uint32(x))<<31 | uint64(uint32(y))
}

// tableSizeHint pre-sizes the unique and apply tables from the node
// budget, clamped so a huge budget does not preallocate a huge empty
// map.
func tableSizeHint(maxNodes int) int {
	const clamp = 4096
	if maxNodes > clamp {
		return clamp
	}
	return maxNodes
}

// DefaultMaxNodes caps BDD growth; compilation fails with ErrTooLarge
// beyond it.
const DefaultMaxNodes = 1 << 22

// ErrTooLarge is wrapped in errors returned when a BDD exceeds its node
// budget.
var ErrTooLarge = fmt.Errorf("bdd: node budget exceeded")

// New creates an empty BDD manager over numVars variables with the
// given node budget (0 means DefaultMaxNodes).
func New(numVars, maxNodes int) *BDD {
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	hint := tableSizeHint(maxNodes)
	b := &BDD{
		numVars: numVars,
		unique:  make(map[node]int, hint),
		cache:   make(map[uint64]int, hint),
		maxNode: maxNodes,
		nodes:   make([]node, 0, hint),
	}
	b.nodes = append(b.nodes,
		node{v: numVars, lo: False, hi: False}, // False terminal
		node{v: numVars, lo: True, hi: True},   // True terminal
	)
	return b
}

// WithContext attaches a cancellation context to the manager: node
// allocation and Prob fail with the context's error, and Count returns
// nil, once ctx is done. Returns the manager for chaining.
func (b *BDD) WithContext(ctx context.Context) *BDD {
	b.ctx = ctx
	return b
}

// NumVars returns the number of variables of the manager.
func (b *BDD) NumVars() int { return b.numVars }

// NumNodes returns the total number of allocated nodes (including the
// two terminals).
func (b *BDD) NumNodes() int { return len(b.nodes) }

// mk returns the canonical node (v, lo, hi), applying the reduction
// rules.
func (b *BDD) mk(v, lo, hi int) (int, error) {
	if lo == hi {
		return lo, nil
	}
	n := node{v: v, lo: lo, hi: hi}
	if id, ok := b.unique[n]; ok {
		return id, nil
	}
	if len(b.nodes) >= b.maxNode {
		return 0, fmt.Errorf("%w: %d nodes", ErrTooLarge, b.maxNode)
	}
	if err := b.poll(); err != nil {
		return 0, fmt.Errorf("bdd: compilation canceled: %w", err)
	}
	id := len(b.nodes)
	b.nodes = append(b.nodes, n)
	b.unique[n] = id
	return id, nil
}

// poll reports the attached context's error on every ctxCheckEvery-th
// call.
func (b *BDD) poll() error {
	if b.ctx == nil {
		return nil
	}
	if b.ctxCount++; b.ctxCount < ctxCheckEvery {
		return nil
	}
	b.ctxCount = 0
	return b.ctx.Err()
}

// levelOf returns the level of l's variable, or an error if l names no
// variable of the manager.
func (b *BDD) levelOf(l prop.Lit) (int, error) {
	if l.Var < 0 || l.Var >= b.numVars {
		return 0, fmt.Errorf("bdd: literal %v outside variable range [0,%d)", l, b.numVars)
	}
	if b.level == nil {
		return l.Var, nil
	}
	return b.level[l.Var], nil
}

// varOf returns the variable at a level.
func (b *BDD) varOf(level int) int {
	if b.varAt == nil {
		return level
	}
	return b.varAt[level]
}

// Lit returns the BDD of a single literal.
func (b *BDD) Lit(l prop.Lit) (int, error) {
	lv, err := b.levelOf(l)
	if err != nil {
		return 0, err
	}
	if l.Neg {
		return b.mk(lv, True, False)
	}
	return b.mk(lv, False, True)
}

// Not returns the negation of the function rooted at a.
func (b *BDD) Not(a int) (int, error) {
	switch a {
	case False:
		return True, nil
	case True:
		return False, nil
	}
	key := applyKey(opNot, a, 0)
	if r, ok := b.cache[key]; ok {
		return r, nil
	}
	n := b.nodes[a]
	lo, err := b.Not(n.lo)
	if err != nil {
		return 0, err
	}
	hi, err := b.Not(n.hi)
	if err != nil {
		return 0, err
	}
	r, err := b.mk(n.v, lo, hi)
	if err != nil {
		return 0, err
	}
	b.cache[key] = r
	return r, nil
}

// And returns the conjunction of the functions rooted at x and y.
func (b *BDD) And(x, y int) (int, error) { return b.apply(opAnd, x, y) }

// Or returns the disjunction of the functions rooted at x and y.
func (b *BDD) Or(x, y int) (int, error) { return b.apply(opOr, x, y) }

func (b *BDD) apply(op, x, y int) (int, error) {
	switch op {
	case opAnd:
		if x == False || y == False {
			return False, nil
		}
		if x == True {
			return y, nil
		}
		if y == True {
			return x, nil
		}
		if x == y {
			return x, nil
		}
	case opOr:
		if x == True || y == True {
			return True, nil
		}
		if x == False {
			return y, nil
		}
		if y == False {
			return x, nil
		}
		if x == y {
			return x, nil
		}
	}
	if x > y {
		x, y = y, x // both ops are commutative
	}
	key := applyKey(op, x, y)
	if r, ok := b.cache[key]; ok {
		return r, nil
	}
	nx, ny := b.nodes[x], b.nodes[y]
	v := nx.v
	if ny.v < v {
		v = ny.v
	}
	xl, xh := x, x
	if nx.v == v {
		xl, xh = nx.lo, nx.hi
	}
	yl, yh := y, y
	if ny.v == v {
		yl, yh = ny.lo, ny.hi
	}
	lo, err := b.apply(op, xl, yl)
	if err != nil {
		return 0, err
	}
	hi, err := b.apply(op, xh, yh)
	if err != nil {
		return 0, err
	}
	r, err := b.mk(v, lo, hi)
	if err != nil {
		return 0, err
	}
	b.cache[key] = r
	return r, nil
}

// FromTerm compiles a conjunctive term into a BDD chain.
func (b *BDD) FromTerm(t prop.Term) (int, error) {
	nt, sat := t.Normalize()
	if !sat {
		return False, nil
	}
	// Build bottom-up: nt is a private copy, so each literal's Var is
	// replaced by its level, the levels sorted ascending and the chain
	// built from the deepest.
	for i, l := range nt {
		lv, err := b.levelOf(l)
		if err != nil {
			return 0, err
		}
		nt[i].Var = lv
	}
	sort.Slice(nt, func(i, j int) bool { return nt[i].Var < nt[j].Var })
	root := True
	for i := len(nt) - 1; i >= 0; i-- {
		var err error
		if nt[i].Neg {
			root, err = b.mk(nt[i].Var, root, False)
		} else {
			root, err = b.mk(nt[i].Var, False, root)
		}
		if err != nil {
			return 0, err
		}
	}
	return root, nil
}

// FromDNF compiles a DNF formula into a BDD by OR-ing its term chains,
// deepest top level first: every chain then lies above what is already
// built, so its apply descends along the chain and only enters the
// accumulated diagram at the levels the chain itself mentions, where
// left-to-right accumulation re-traverses the diagram from the root for
// every term. On a manager without internal nodes it first chooses the
// variable order from d.
func (b *BDD) FromDNF(d prop.DNF) (int, error) {
	if d.NumVars > b.numVars {
		return 0, fmt.Errorf("bdd: DNF has %d variables, manager %d", d.NumVars, b.numVars)
	}
	if len(b.nodes) == 2 {
		if err := b.chooseOrder(d); err != nil {
			return 0, err
		}
	}
	chains := make([]int, len(d.Terms))
	for i, t := range d.Terms {
		tn, err := b.FromTerm(t)
		if err != nil {
			return 0, err
		}
		chains[i] = tn
	}
	sort.SliceStable(chains, func(i, j int) bool { return b.nodes[chains[i]].v < b.nodes[chains[j]].v })
	root := False
	for i := len(chains) - 1; i >= 0; i-- {
		var err error
		if root, err = b.Or(root, chains[i]); err != nil {
			return 0, err
		}
	}
	return root, nil
}

// chooseOrder fixes the variable order from the term–variable incidence
// of d, so that the variables of a term sit on neighbouring levels and
// a lineage of bounded pathwidth compiles to a diagram of bounded
// width. Terms are placed one at a time, always the one with the fewest
// variables still unplaced — among equals the one that reached that
// count first, and at the start the one whose variables occur least in
// total — so a term is closed as soon as the terms before it have
// placed most of it, and the walk follows shared variables without
// fanning out through a variable that many terms share. A placed term
// appends its unplaced variables, rarer ones first. Every remaining tie
// goes to the smaller term or variable index and variables d does not
// mention come last, so the order — and with it every node count — is
// a function of d alone.
func (b *BDD) chooseOrder(d prop.DNF) error {
	n := b.numVars
	// termsOf[start[v]:start[v+1]] lists the terms mentioning v, once per
	// literal, in term order.
	start := make([]int, n+1)
	lits, width := 0, 0
	for _, t := range d.Terms {
		for _, l := range t {
			if _, err := b.levelOf(l); err != nil {
				return err
			}
			start[l.Var+1]++
		}
		lits += len(t)
		if len(t) > width {
			width = len(t)
		}
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	occ := func(v int) int { return start[v+1] - start[v] }
	termsOf := make([]int, lits)
	fill := make([]int, n)
	weight := make([]int, len(d.Terms))  // total occurrences of the term's variables
	missing := make([]int, len(d.Terms)) // literals not yet placed; -1 once the term is
	seeds := make([]int, len(d.Terms))
	for i, t := range d.Terms {
		seeds[i], missing[i] = i, len(t)
		for _, l := range t {
			termsOf[start[l.Var]+fill[l.Var]] = i
			fill[l.Var]++
			weight[i] += occ(l.Var)
		}
	}
	sort.SliceStable(seeds, func(i, j int) bool { return weight[seeds[i]] < weight[seeds[j]] })
	// queue[m] holds, first in first out from head[m], the terms that
	// have had m literals missing; an entry is stale once its term has
	// moved on to a lower queue or been placed. No live entry sits below
	// queue[low].
	queue := make([][]int, width+1)
	head := make([]int, width+1)
	for _, i := range seeds {
		queue[missing[i]] = append(queue[missing[i]], i)
	}
	low := 0

	level := fill // reused: every entry is overwritten
	for v := range level {
		level[v] = -1
	}
	varAt := make([]int, 0, n)
	for range d.Terms {
		next := -1
		for next < 0 {
			if head[low] == len(queue[low]) {
				low++
				continue
			}
			if c := queue[low][head[low]]; missing[c] == low {
				next = c
			}
			head[low]++
		}
		missing[next] = -1
		from := len(varAt)
		for _, l := range d.Terms[next] {
			if level[l.Var] < 0 {
				level[l.Var] = from
				varAt = append(varAt, l.Var)
			}
		}
		fresh := varAt[from:]
		sort.Slice(fresh, func(i, j int) bool {
			if oi, oj := occ(fresh[i]), occ(fresh[j]); oi != oj {
				return oi < oj
			}
			return fresh[i] < fresh[j]
		})
		for i, v := range fresh {
			level[v] = from + i
			for _, u := range termsOf[start[v]:start[v+1]] {
				if missing[u] > 0 {
					missing[u]--
					queue[missing[u]] = append(queue[missing[u]], u)
					if missing[u] < low {
						low = missing[u]
					}
				}
			}
		}
	}
	for v := 0; v < n; v++ {
		if level[v] < 0 {
			level[v] = len(varAt)
			varAt = append(varAt, v)
		}
	}
	b.level, b.varAt = level, varAt
	return nil
}

// FromFormula compiles an arbitrary propositional formula.
func (b *BDD) FromFormula(f prop.Formula) (int, error) {
	switch g := f.(type) {
	case prop.FTrue:
		return True, nil
	case prop.FFalse:
		return False, nil
	case prop.FVar:
		return b.Lit(prop.Pos(int(g)))
	case prop.FNot:
		inner, err := b.FromFormula(g.F)
		if err != nil {
			return 0, err
		}
		return b.Not(inner)
	case prop.FAnd:
		root := True
		for _, h := range g {
			hn, err := b.FromFormula(h)
			if err != nil {
				return 0, err
			}
			root, err = b.And(root, hn)
			if err != nil {
				return 0, err
			}
		}
		return root, nil
	case prop.FOr:
		root := False
		for _, h := range g {
			hn, err := b.FromFormula(h)
			if err != nil {
				return 0, err
			}
			root, err = b.Or(root, hn)
			if err != nil {
				return 0, err
			}
		}
		return root, nil
	default:
		return 0, fmt.Errorf("bdd: unknown formula node %T", f)
	}
}

// Eval evaluates the function rooted at n under the assignment.
func (b *BDD) Eval(n int, a []bool) bool {
	for n > True {
		nd := b.nodes[n]
		if a[b.varOf(nd.v)] {
			n = nd.hi
		} else {
			n = nd.lo
		}
	}
	return n == True
}

// Size returns the number of nodes reachable from n (including
// terminals).
func (b *BDD) Size(n int) int {
	// Node ids are dense indices into b.nodes, so a flat visited slice
	// replaces the set: one allocation, O(1) membership.
	seen := make([]bool, len(b.nodes))
	count := 0
	var visit func(int)
	visit = func(m int) {
		if seen[m] {
			return
		}
		seen[m] = true
		count++
		if m > True {
			visit(b.nodes[m].lo)
			visit(b.nodes[m].hi)
		}
	}
	visit(n)
	return count
}

// Prob computes the exact probability that the function rooted at n is
// true when variable v is independently true with probability p[v].
// One bottom-up pass, linear in the BDD size, in integers: with
// p = num/den per level, a node at level l carries the numerator of its
// probability over the product of the denominators of the levels from l
// down, and only the root's fraction is reduced.
func (b *BDD) Prob(n int, p prop.ProbAssignment) (*big.Rat, error) {
	if err := p.Validate(b.numVars); err != nil {
		return nil, err
	}
	if n <= True {
		return big.NewRat(int64(n), 1), nil
	}
	at := func(l int) *big.Rat { return p[b.varOf(l)] }
	// Levels from bottom down hold no node, so they sum out to 1 and
	// their denominators never enter.
	top, bottom := b.nodes[n].v, 0
	for _, nd := range b.nodes[2:] {
		if nd.v >= bottom {
			bottom = nd.v + 1
		}
	}
	// below[l] is the product of the denominators of levels l..bottom-1,
	// which is True's numerator seen from level l. Levels with
	// denominator 1 share the entry below them.
	below := make([]*big.Int, bottom+1)
	below[bottom] = big.NewInt(1)
	for l := bottom - 1; l >= top; l-- {
		below[l] = below[l+1]
		if !at(l).IsInt() {
			below[l] = new(big.Int).Mul(below[l+1], at(l).Denom())
		}
	}
	// Dense node ids make slices the natural memo.
	val := make([]big.Int, len(b.nodes))
	done := make([]bool, len(b.nodes))
	// lift sets dst to m's numerator over the denominators from level l
	// down: the edge into m skips the levels between l and m's own.
	lift := func(dst *big.Int, m, l int) *big.Int {
		switch m {
		case False:
			return dst.SetInt64(0)
		case True:
			return dst.Set(below[l])
		}
		dst.Set(&val[m])
		for ; l < b.nodes[m].v; l++ {
			if below[l] != below[l+1] {
				dst.Mul(dst, at(l).Denom())
			}
		}
		return dst
	}
	var lo, hi, notNum big.Int
	var visit func(int) error
	visit = func(m int) error {
		if m <= True || done[m] {
			return nil
		}
		if err := b.poll(); err != nil {
			return fmt.Errorf("bdd: count canceled: %w", err)
		}
		nd := b.nodes[m]
		if err := visit(nd.lo); err != nil {
			return err
		}
		if err := visit(nd.hi); err != nil {
			return err
		}
		// P = (1 - p)·lo + p·hi over den·below[level+1].
		pv := at(nd.v)
		notNum.Sub(pv.Denom(), pv.Num())
		lift(&lo, nd.lo, nd.v+1).Mul(&lo, &notNum)
		lift(&hi, nd.hi, nd.v+1).Mul(&hi, pv.Num())
		val[m].Add(&lo, &hi)
		done[m] = true
		return nil
	}
	if err := visit(n); err != nil {
		return nil, err
	}
	return new(big.Rat).SetFrac(lift(new(big.Int), n, top), below[top]), nil
}

// Count returns the number of satisfying assignments of the function
// rooted at n over all numVars variables, or nil if the manager's
// context ended before the count did.
func (b *BDD) Count(n int) *big.Int {
	// f(m) = #models over the levels [level(m), numVars).
	// Dense node ids make a slice the natural memo; nil marks unvisited.
	memo := make([]*big.Int, len(b.nodes))
	memo[False] = new(big.Int)
	memo[True] = big.NewInt(1) // the empty assignment
	var visit func(int) *big.Int
	visit = func(m int) *big.Int {
		if r := memo[m]; r != nil {
			return r
		}
		if b.poll() != nil {
			return nil
		}
		nd := b.nodes[m]
		lo := visit(nd.lo)
		hi := visit(nd.hi)
		if lo == nil || hi == nil {
			return nil
		}
		gapLo := uint(b.nodes[nd.lo].v - nd.v - 1)
		gapHi := uint(b.nodes[nd.hi].v - nd.v - 1)
		r := new(big.Int).Lsh(lo, gapLo)
		r.Add(r, new(big.Int).Lsh(hi, gapHi))
		memo[m] = r
		return r
	}
	root := visit(n)
	if root == nil {
		return nil
	}
	// Levels above the root are free.
	return new(big.Int).Lsh(root, uint(b.nodes[n].v))
}
