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
	"math"
	"math/big"
	"math/bits"
	"sort"

	"qrel/internal/prop"
)

// Terminal node identifiers.
const (
	False = 0
	True  = 1
)

// node is one diagram node: the level of its variable (numVars for the
// terminals) and its two children. Node ids are int32: the node budget
// is capped at math.MaxInt32 (see New).
type node struct {
	v, lo, hi int32
}

// BDD is a multi-rooted reduced ordered BDD over a fixed number of
// variables. The variable order belongs to the manager: the first
// FromDNF on a manager without internal nodes chooses it from that
// DNF's term–variable incidence (see chooseOrder); a manager first used
// any other way keeps the indexing order 0 < 1 < ... < numVars-1.
// Callers pass and read their own variable indices either way; levels
// never leave the package. The zero value is not usable; construct
// with New. A manager is not safe for concurrent use.
//
// The manager holds no Go map. Nodes are (level, lo, hi) triples in one
// slice; the unique table is an open-addressed slice of node ids probed
// against that slice, and the apply cache an exact open-addressed table
// from applyKey to a node id. Both tables are powers of two and double
// at load ½, and the first FromDNF sizes them from the DNF's literal
// count rather than from the node budget, so a small lineage pays for a
// small manager. Reset empties a manager for the next diagram and keeps
// its tables.
type BDD struct {
	numVars int
	nodes   []node
	unique  []int32 // node ids by hashNode; 0 (False, never interned) marks a free slot
	// The apply cache: cacheKeys[i] packs (op, x, y), cacheVals[i] its
	// result; key 0 — And(False, False), answered before any lookup —
	// marks a free slot.
	cacheKeys []uint64
	cacheVals []int32
	cacheLen  int
	maxNode   int

	// level[v] is the level of variable v and varAt its inverse; both
	// nil stand for the identity.
	level, varAt []int

	// ctx, when set via WithContext, is polled every ctxCheckEvery node
	// allocations and every ctxCheckEvery nodes a count visits, so
	// runaway work stops soon after cancellation.
	ctx      context.Context
	ctxCount int

	// pos is Prob's scratch, kept across calls: per node, 0 when not
	// reached from the root, -1 when reached, then one past the offset
	// of its numerator's slot.
	pos []int32
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
// int32 and non-negative, so the packing is collision-free.
func applyKey(op int, x, y int32) uint64 {
	return uint64(op)<<62 | uint64(uint32(x))<<31 | uint64(uint32(y))
}

// hashMul is the 64-bit golden-ratio multiplier of Fibonacci hashing:
// the table index is the top bits of the product.
const hashMul = 0x9E3779B97F4A7C15

// slot returns the table index of hash h in a table of 2^bits entries,
// mask = 2^bits - 1.
func slot(h uint64, mask int) int {
	return int((h * hashMul) >> (64 - bits.Len(uint(mask))))
}

// hashNode mixes a node's triple into one word for the unique table.
func hashNode(v, lo, hi int32) uint64 {
	return (uint64(uint32(lo))<<32 | uint64(uint32(hi))) ^ uint64(uint32(v))*0xBF58476D1CE4E5B9
}

// minTable is the smallest table either open-addressed table takes.
const minTable = 16

// DefaultMaxNodes caps BDD growth; compilation fails with ErrTooLarge
// beyond it.
const DefaultMaxNodes = 1 << 22

// ErrTooLarge is wrapped in errors returned when a BDD exceeds its node
// budget.
var ErrTooLarge = fmt.Errorf("bdd: node budget exceeded")

// New creates an empty BDD manager over numVars variables with the
// given node budget (0 means DefaultMaxNodes; a budget beyond
// math.MaxInt32 is capped there). It allocates only the terminals: the
// tables grow with the diagram.
func New(numVars, maxNodes int) *BDD {
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	b := &BDD{
		numVars: numVars,
		maxNode: min(maxNodes, math.MaxInt32),
		nodes:   make([]node, 2, minTable),
	}
	b.nodes[False] = node{v: int32(numVars), lo: False, hi: False}
	b.nodes[True] = node{v: int32(numVars), lo: True, hi: True}
	return b
}

// Reset empties the manager for an unrelated diagram over numVars
// variables: the internal nodes, the unique table, the apply cache and
// the variable order go, so the next FromDNF chooses its own order and
// every node id, count and budget check is what New(numVars, budget)
// would give. The tables keep their capacity, the budget and context
// stay, and the context's poll stride restarts.
func (b *BDD) Reset(numVars int) {
	b.numVars = numVars
	b.nodes = b.nodes[:2]
	b.nodes[False].v, b.nodes[True].v = int32(numVars), int32(numVars)
	clear(b.unique)
	clear(b.cacheKeys)
	b.cacheLen = 0
	b.level, b.varAt = nil, nil
	b.ctxCount = 0
}

// reserve grows the tables, if needed, to hold n more nodes and n more
// cache entries at load ½.
func (b *BDD) reserve(n int) {
	if want := tableSize(len(b.nodes) + n); want > len(b.unique) {
		b.rehashUnique(want)
	}
	if want := tableSize(b.cacheLen + n); want > len(b.cacheKeys) {
		b.rehashCache(want)
	}
}

// tableSize is the power-of-two table that holds n entries at load ½.
func tableSize(n int) int {
	return max(minTable, 1<<bits.Len(uint(2*n-1)))
}

// rehashUnique rebuilds the unique table at size entries, and gives
// the node slice room for the size/2 nodes, terminals included, that it
// then holds.
func (b *BDD) rehashUnique(size int) {
	if cap(b.nodes) < size/2 {
		b.nodes = append(make([]node, 0, size/2), b.nodes...)
	}
	b.unique = make([]int32, size)
	mask := size - 1
	for id := int32(2); id < int32(len(b.nodes)); id++ {
		n := b.nodes[id]
		i := slot(hashNode(n.v, n.lo, n.hi), mask)
		for b.unique[i] != 0 {
			i = (i + 1) & mask
		}
		b.unique[i] = id
	}
}

// rehashCache rebuilds the apply cache at size entries.
func (b *BDD) rehashCache(size int) {
	keys, vals := b.cacheKeys, b.cacheVals
	b.cacheKeys, b.cacheVals = make([]uint64, size), make([]int32, size)
	mask := size - 1
	for j, k := range keys {
		if k == 0 {
			continue
		}
		i := slot(k, mask)
		for b.cacheKeys[i] != 0 {
			i = (i + 1) & mask
		}
		b.cacheKeys[i], b.cacheVals[i] = k, vals[j]
	}
}

// cached looks key up in the apply cache.
func (b *BDD) cached(key uint64) (int32, bool) {
	if len(b.cacheKeys) == 0 {
		return 0, false
	}
	mask := len(b.cacheKeys) - 1
	for i := slot(key, mask); ; i = (i + 1) & mask {
		switch b.cacheKeys[i] {
		case key:
			return b.cacheVals[i], true
		case 0:
			return 0, false
		}
	}
}

// remember records key -> r in the apply cache; key is not in it.
func (b *BDD) remember(key uint64, r int32) {
	if 2*(b.cacheLen+1) > len(b.cacheKeys) {
		b.rehashCache(tableSize(b.cacheLen + 1))
	}
	mask := len(b.cacheKeys) - 1
	i := slot(key, mask)
	for b.cacheKeys[i] != 0 {
		i = (i + 1) & mask
	}
	b.cacheKeys[i], b.cacheVals[i] = key, r
	b.cacheLen++
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
func (b *BDD) mk(v, lo, hi int32) (int32, error) {
	if lo == hi {
		return lo, nil
	}
	if 2*(len(b.nodes)+1) > len(b.unique) {
		b.rehashUnique(tableSize(len(b.nodes) + 1))
	}
	mask := len(b.unique) - 1
	i := slot(hashNode(v, lo, hi), mask)
	for ; b.unique[i] != 0; i = (i + 1) & mask {
		if n := b.nodes[b.unique[i]]; n.v == v && n.lo == lo && n.hi == hi {
			return b.unique[i], nil
		}
	}
	if len(b.nodes) >= b.maxNode {
		return 0, fmt.Errorf("%w: %d nodes", ErrTooLarge, b.maxNode)
	}
	if err := b.poll(); err != nil {
		return 0, fmt.Errorf("bdd: compilation canceled: %w", err)
	}
	id := int32(len(b.nodes))
	b.nodes = append(b.nodes, node{v: v, lo: lo, hi: hi})
	b.unique[i] = id
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
func (b *BDD) levelOf(l prop.Lit) (int32, error) {
	if l.Var < 0 || l.Var >= b.numVars {
		return 0, fmt.Errorf("bdd: literal %v outside variable range [0,%d)", l, b.numVars)
	}
	if b.level == nil {
		return int32(l.Var), nil
	}
	return int32(b.level[l.Var]), nil
}

// varOf returns the variable at a level.
func (b *BDD) varOf(level int32) int {
	if b.varAt == nil {
		return int(level)
	}
	return b.varAt[level]
}

// Lit returns the BDD of a single literal.
func (b *BDD) Lit(l prop.Lit) (int, error) {
	lv, err := b.levelOf(l)
	if err != nil {
		return 0, err
	}
	var r int32
	if l.Neg {
		r, err = b.mk(lv, True, False)
	} else {
		r, err = b.mk(lv, False, True)
	}
	return int(r), err
}

// Not returns the negation of the function rooted at a.
func (b *BDD) Not(a int) (int, error) {
	r, err := b.not(int32(a))
	return int(r), err
}

func (b *BDD) not(a int32) (int32, error) {
	switch a {
	case False:
		return True, nil
	case True:
		return False, nil
	}
	key := applyKey(opNot, a, 0)
	if r, ok := b.cached(key); ok {
		return r, nil
	}
	n := b.nodes[a]
	lo, err := b.not(n.lo)
	if err != nil {
		return 0, err
	}
	hi, err := b.not(n.hi)
	if err != nil {
		return 0, err
	}
	r, err := b.mk(n.v, lo, hi)
	if err != nil {
		return 0, err
	}
	b.remember(key, r)
	return r, nil
}

// And returns the conjunction of the functions rooted at x and y.
func (b *BDD) And(x, y int) (int, error) {
	r, err := b.apply(opAnd, int32(x), int32(y))
	return int(r), err
}

// Or returns the disjunction of the functions rooted at x and y.
func (b *BDD) Or(x, y int) (int, error) {
	r, err := b.apply(opOr, int32(x), int32(y))
	return int(r), err
}

func (b *BDD) apply(op int, x, y int32) (int32, error) {
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
	if r, ok := b.cached(key); ok {
		return r, nil
	}
	nx, ny := b.nodes[x], b.nodes[y]
	v := min(nx.v, ny.v)
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
	b.remember(key, r)
	return r, nil
}

// FromTerm compiles a conjunctive term into a BDD chain.
func (b *BDD) FromTerm(t prop.Term) (int, error) {
	r, err := b.fromTerm(t)
	return int(r), err
}

func (b *BDD) fromTerm(t prop.Term) (int32, error) {
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
		nt[i].Var = int(lv)
	}
	sort.Slice(nt, func(i, j int) bool { return nt[i].Var < nt[j].Var })
	root := int32(True)
	for i := len(nt) - 1; i >= 0; i-- {
		var err error
		if lv := int32(nt[i].Var); nt[i].Neg {
			root, err = b.mk(lv, root, False)
		} else {
			root, err = b.mk(lv, False, root)
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
// variable order from d and sizes the tables for d's literals.
func (b *BDD) FromDNF(d prop.DNF) (int, error) {
	if d.NumVars > b.numVars {
		return 0, fmt.Errorf("bdd: DNF has %d variables, manager %d", d.NumVars, b.numVars)
	}
	if len(b.nodes) == 2 {
		if err := b.chooseOrder(d); err != nil {
			return 0, err
		}
		lits := 0
		for _, t := range d.Terms {
			lits += len(t)
		}
		b.reserve(lits)
	}
	chains := make([]int32, len(d.Terms))
	for i, t := range d.Terms {
		tn, err := b.fromTerm(t)
		if err != nil {
			return 0, err
		}
		chains[i] = tn
	}
	sort.SliceStable(chains, func(i, j int) bool { return b.nodes[chains[i]].v < b.nodes[chains[j]].v })
	root := int32(False)
	for i := len(chains) - 1; i >= 0; i-- {
		var err error
		if root, err = b.apply(opOr, root, chains[i]); err != nil {
			return 0, err
		}
	}
	return int(root), nil
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
	m := int32(n)
	for m > True {
		nd := b.nodes[m]
		if a[b.varOf(nd.v)] {
			m = nd.hi
		} else {
			m = nd.lo
		}
	}
	return m == True
}

// Size returns the number of nodes reachable from n (including
// terminals).
func (b *BDD) Size(n int) int {
	// Node ids are dense indices into b.nodes, so a flat visited slice
	// replaces the set: one allocation, O(1) membership.
	seen := make([]bool, len(b.nodes))
	count := 0
	var visit func(int32)
	visit = func(m int32) {
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
	visit(int32(n))
	return count
}

// reach marks b.pos[m] = -1 for the internal node m and every internal
// node below it that is not marked yet, polling the context once per
// node, and returns one past the deepest level it marked.
func (b *BDD) reach(m int32) (int32, error) {
	if err := b.poll(); err != nil {
		return 0, fmt.Errorf("bdd: count canceled: %w", err)
	}
	b.pos[m] = -1
	nd := b.nodes[m]
	bottom := nd.v + 1
	for _, c := range [2]int32{nd.lo, nd.hi} {
		if c > True && b.pos[c] == 0 {
			cb, err := b.reach(c)
			if err != nil {
				return 0, err
			}
			bottom = max(bottom, cb)
		}
	}
	return bottom, nil
}

// Prob computes the exact probability that the function rooted at n is
// true when variable v is independently true with probability p[v].
// One bottom-up pass over the nodes reachable from n, in integers: with
// p = num/den per level, a node at level l carries the numerator of its
// probability over the product of the denominators of the levels from l
// down, and only the root's fraction is reduced. A numerator is at most
// that product, so every node's words fit a slot of a size known before
// the pass, and all of them share one arena.
func (b *BDD) Prob(n int, p prop.ProbAssignment) (*big.Rat, error) {
	if err := p.Validate(b.numVars); err != nil {
		return nil, err
	}
	if n <= True {
		return big.NewRat(int64(n), 1), nil
	}
	root := int32(n)
	if cap(b.pos) < len(b.nodes) {
		b.pos = make([]int32, len(b.nodes))
	} else {
		b.pos = b.pos[:len(b.nodes)]
		clear(b.pos)
	}
	// Levels from bottom down hold no reachable node, so they sum out to
	// 1 and their denominators never enter.
	bottom, err := b.reach(root)
	if err != nil {
		return nil, err
	}
	at := func(l int32) *big.Rat { return p[b.varOf(l)] }
	top := b.nodes[root].v
	// below[l-top] is the product of the denominators of levels
	// l..bottom-1, which is True's numerator seen from level l. Levels
	// with denominator 1 share the entry below them.
	below := make([]*big.Int, bottom-top+1)
	below[bottom-top] = big.NewInt(1)
	for l := bottom - 1; l >= top; l-- {
		below[l-top] = below[l-top+1]
		if !at(l).IsInt() {
			below[l-top] = new(big.Int).Mul(below[l-top+1], at(l).Denom())
		}
	}
	// mk numbers a node after its children, so ascending ids visit the
	// reached nodes bottom-up. A reached node's slot in the arena is its
	// word count, then room for the words of below at its level; pos[m]
	// becomes the slot's offset plus one once m's numerator is in it.
	words := 0
	for m := int32(2); m <= root; m++ {
		if b.pos[m] != 0 {
			words += 1 + len(below[b.nodes[m].v-top].Bits())
		}
	}
	arena := make([]big.Word, 0, words)
	var view big.Int
	// lift sets dst to m's numerator over the denominators from level l
	// down: the edge into m skips the levels between l and m's own.
	lift := func(dst *big.Int, m, l int32) *big.Int {
		switch m {
		case False:
			return dst.SetInt64(0)
		case True:
			return dst.Set(below[l-top])
		}
		s := b.pos[m] - 1
		dst.Set(view.SetBits(arena[s+1 : s+1+int32(arena[s])]))
		for ; l < b.nodes[m].v; l++ {
			if below[l-top] != below[l-top+1] {
				dst.Mul(dst, at(l).Denom())
			}
		}
		return dst
	}
	var lo, hi, notNum big.Int
	for m := int32(2); m <= root; m++ {
		if b.pos[m] == 0 {
			continue
		}
		// P = (1 - p)·lo + p·hi over den·below[level+1].
		nd := b.nodes[m]
		pv := at(nd.v)
		notNum.Sub(pv.Denom(), pv.Num())
		lift(&lo, nd.lo, nd.v+1).Mul(&lo, &notNum)
		lift(&hi, nd.hi, nd.v+1).Mul(&hi, pv.Num())
		w, room := lo.Add(&lo, &hi).Bits(), len(below[nd.v-top].Bits())
		if len(w) > room {
			panic("bdd: a numerator outgrew its denominators")
		}
		b.pos[m] = int32(len(arena)) + 1
		arena = append(append(arena, big.Word(len(w))), w...)
		arena = arena[:len(arena)+room-len(w)]
	}
	return new(big.Rat).SetFrac(lift(new(big.Int), root, top), below[0]), nil
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
	var visit func(int32) *big.Int
	visit = func(m int32) *big.Int {
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
	root := visit(int32(n))
	if root == nil {
		return nil
	}
	// Levels above the root are free.
	return new(big.Int).Lsh(root, uint(b.nodes[n].v))
}
