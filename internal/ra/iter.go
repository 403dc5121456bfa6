package ra

// Volcano-style pull iterators for the algebra. Build compiles an
// Expr into a tree of streaming operators over any Source — the
// memory-resident structure or the paged store — pulling one tuple at
// a time and emitting its lineage (the ground atoms that witness it)
// as it streams, so million-tuple relations flow through
// scan→filter→join under a fixed buffer-pool budget without ever
// being materialized whole.
//
// Rows are borrowed: every scan and operator hands out a tuple and a
// lineage that stay valid only until its next Next or Close, as with
// bufio.Scanner.Bytes, and reuses their memory after that. An operator
// that keeps a row — a join's build side — copies it, so a pass
// allocates per kept and per output row, not per scanned tuple.

import (
	"fmt"
	"sort"

	"qrel/internal/logic"
	"qrel/internal/rel"
)

// TupleIter streams the tuples of one relation. The tuple Next returns
// is borrowed: it stays valid only until the next Next or Close, which
// may overwrite it; a caller that keeps it clones it. Implementations
// are not safe for concurrent use; Close must be idempotent.
type TupleIter interface {
	Next() (rel.Tuple, bool, error)
	Close() error
}

// Source is what an operator tree scans: a universe, a set of
// relation symbols, and per-relation tuple streams. *store.Store
// implements it against pages; StructureSource adapts an in-memory
// structure.
type Source interface {
	Universe() int
	Relations() []rel.RelSym
	Scan(name string) (TupleIter, error)
}

// Lineage is the set of ground atoms witnessing one output tuple: the
// tuple is in the result of every world containing all of them.
type Lineage []rel.GroundAtom

// Formula compiles the lineage to the conjunction of its atoms in
// canonical (relation name, tuple key) order, deduplicated — the same
// atom reached through both sides of a join appears once. Feeding the
// formula to a reliability engine gives the probability that this
// particular witness survives.
func (l Lineage) Formula() logic.Formula {
	atoms := append(Lineage(nil), l...)
	sort.Slice(atoms, func(i, j int) bool {
		if atoms[i].Rel != atoms[j].Rel {
			return atoms[i].Rel < atoms[j].Rel
		}
		return atoms[i].Args.Key() < atoms[j].Args.Key()
	})
	var fs logic.And
	for i, a := range atoms {
		if i > 0 && a.Equal(atoms[i-1]) {
			continue
		}
		args := make([]logic.Term, len(a.Args))
		for j, e := range a.Args {
			args[j] = logic.Elem(e)
		}
		fs = append(fs, logic.Atom{Rel: a.Rel, Args: args})
	}
	if len(fs) == 1 {
		return fs[0]
	}
	return fs
}

// Clone returns a deep copy of the lineage, atoms' tuples included, so
// it outlives the Next call that produced it.
func (l Lineage) Clone() Lineage {
	out := make(Lineage, len(l))
	for i, a := range l {
		out[i] = rel.GroundAtom{Rel: a.Rel, Args: a.Args.Clone()}
	}
	return out
}

// Iterator is a streaming operator: Next yields the next output tuple
// with its lineage, then (nil, nil, false, nil) at the end. Both are
// borrowed: they stay valid only until the next Next or Close, which
// may overwrite them — the lineage's atoms included; a caller that
// keeps a row copies it (Tuple.Clone, Lineage.Clone). Close releases
// underlying scans (and, for a store source, page pins) and is
// idempotent.
type Iterator interface {
	Next() (rel.Tuple, Lineage, bool, error)
	Close() error
}

// StructureSource adapts a memory-resident structure as a Source.
// Scans walk each relation with a rel.Cursor, in sorted tuple order,
// matching the ingest order store.BuildFromDB uses, so the two sources
// drive identical pipelines — including witness choice under
// projection.
func StructureSource(db *rel.Structure) Source { return memSource{db} }

type memSource struct{ db *rel.Structure }

func (m memSource) Universe() int           { return m.db.N }
func (m memSource) Relations() []rel.RelSym { return m.db.Voc.Rels }
func (m memSource) Scan(name string) (TupleIter, error) {
	r := m.db.Rel(name)
	if r == nil {
		return nil, fmt.Errorf("ra: unknown relation %q", name)
	}
	return &memScan{r.Cursor()}, nil
}

// memScan streams one relation through its cursor; Close drops it.
type memScan struct{ c *rel.Cursor }

func (it *memScan) Next() (rel.Tuple, bool, error) {
	if it.c == nil {
		return nil, false, nil
	}
	t, ok := it.c.Next()
	return t, ok, nil
}

func (it *memScan) Close() error { it.c = nil; return nil }

// skeleton returns a structure carrying only the source's shape
// (universe size and relation arities) so the Expr.Schema methods —
// which read nothing else — validate expressions against any Source.
func skeleton(src Source) (*rel.Structure, error) {
	if m, ok := src.(memSource); ok {
		return m.db, nil
	}
	voc := &rel.Vocabulary{}
	for _, rs := range src.Relations() {
		if err := voc.AddRel(rs); err != nil {
			return nil, err
		}
	}
	return rel.NewStructure(src.Universe(), voc)
}

// Build compiles e into a streaming operator tree over src and
// returns it with the output schema. The tree is lazy: no tuple moves
// until Next, and the caller must Close it.
func Build(src Source, e Expr) (Iterator, []string, error) {
	skel, err := skeleton(src)
	if err != nil {
		return nil, nil, err
	}
	return build(src, skel, e)
}

func build(src Source, skel *rel.Structure, e Expr) (Iterator, []string, error) {
	schema, err := e.Schema(skel)
	if err != nil {
		return nil, nil, err
	}
	// Tuples are keyed with the packed encoding (16 bits per
	// component), which caps every operator's width.
	if len(schema) > rel.MaxArity {
		return nil, nil, fmt.Errorf("ra: schema %v has %d attributes; the tuple encoding supports at most %d",
			schema, len(schema), rel.MaxArity)
	}
	switch x := e.(type) {
	case Base:
		it, err := src.Scan(x.Rel)
		if err != nil {
			return nil, nil, err
		}
		return &scanIter{rel: x.Rel, in: it}, schema, nil
	case Select:
		in, inSchema, err := build(src, skel, x.From)
		if err != nil {
			return nil, nil, err
		}
		ri := -1
		if x.Elem < 0 {
			ri = index(inSchema, x.Other)
		}
		return &selectIter{in: in, li: index(inSchema, x.Attr), ri: ri, elem: x.Elem, negate: x.Negate}, schema, nil
	case Project:
		in, inSchema, err := build(src, skel, x.From)
		if err != nil {
			return nil, nil, err
		}
		idx := make([]int, len(x.Attrs))
		for i, a := range x.Attrs {
			idx[i] = index(inSchema, a)
		}
		return &projectIter{in: in, idx: idx, out: make(rel.Tuple, len(idx)), seen: map[uint64]struct{}{}}, schema, nil
	case Rename:
		// Rename changes attribute names only; the tuple stream is the
		// child's, untouched.
		in, _, err := build(src, skel, x.From)
		if err != nil {
			return nil, nil, err
		}
		return in, schema, nil
	case Join:
		l, ls, err := build(src, skel, x.L)
		if err != nil {
			return nil, nil, err
		}
		r, rs, err := build(src, skel, x.R)
		if err != nil {
			l.Close()
			return nil, nil, err
		}
		shared := sharedAttrs(ls, rs)
		j := &joinIter{l: l, r: r}
		for _, a := range shared {
			j.lKey = append(j.lKey, index(ls, a))
			j.rKey = append(j.rKey, index(rs, a))
		}
		for i, a := range rs {
			if !has(ls, a) {
				j.rExtra = append(j.rExtra, i)
			}
		}
		return j, schema, nil
	case Union:
		l, _, err := build(src, skel, x.L)
		if err != nil {
			return nil, nil, err
		}
		r, _, err := build(src, skel, x.R)
		if err != nil {
			l.Close()
			return nil, nil, err
		}
		return &unionIter{l: l, r: r, seen: map[uint64]struct{}{}}, schema, nil
	case Diff:
		l, _, err := build(src, skel, x.L)
		if err != nil {
			return nil, nil, err
		}
		r, _, err := build(src, skel, x.R)
		if err != nil {
			l.Close()
			return nil, nil, err
		}
		return &diffIter{l: l, r: r}, schema, nil
	default:
		return nil, nil, fmt.Errorf("ra: unknown expression %T", e)
	}
}

// scanIter streams a base relation; each tuple's lineage is its own
// ground atom, held in one array the scan reuses.
type scanIter struct {
	rel string
	in  TupleIter
	lin [1]rel.GroundAtom
}

func (it *scanIter) Next() (rel.Tuple, Lineage, bool, error) {
	t, ok, err := it.in.Next()
	if err != nil || !ok {
		return nil, nil, false, err
	}
	it.lin[0] = rel.GroundAtom{Rel: it.rel, Args: t}
	return t, it.lin[:], true, nil
}

func (it *scanIter) Close() error { return it.in.Close() }

type selectIter struct {
	in     Iterator
	li, ri int
	elem   int
	negate bool
}

func (it *selectIter) Next() (rel.Tuple, Lineage, bool, error) {
	for {
		t, lin, ok, err := it.in.Next()
		if err != nil || !ok {
			return nil, nil, false, err
		}
		rhs := it.elem
		if it.ri >= 0 {
			rhs = t[it.ri]
		}
		if (t[it.li] == rhs) != it.negate {
			return t, lin, true, nil
		}
	}
}

func (it *selectIter) Close() error { return it.in.Close() }

// projectIter narrows tuples into one reused output tuple and
// deduplicates; the lineage of an output row is the first witness seen
// in stream order (deterministic for a deterministic source).
type projectIter struct {
	in   Iterator
	idx  []int
	out  rel.Tuple
	seen map[uint64]struct{}
}

func (it *projectIter) Next() (rel.Tuple, Lineage, bool, error) {
	for {
		t, lin, ok, err := it.in.Next()
		if err != nil || !ok {
			return nil, nil, false, err
		}
		for i, j := range it.idx {
			it.out[i] = t[j]
		}
		k := it.out.Key()
		if _, dup := it.seen[k]; dup {
			continue
		}
		it.seen[k] = struct{}{}
		return it.out, lin, true, nil
	}
}

func (it *projectIter) Close() error { return it.in.Close() }

// joinIter hash-joins: the right input is drained into an in-memory
// table of copied rows on first Next (build side — put the smaller
// input on the right), then the left input streams through it one
// borrowed tuple at a time, each match written into reused output
// buffers.
type joinIter struct {
	l, r   Iterator
	lKey   []int
	rKey   []int
	rExtra []int

	built   bool
	table   map[uint64][]joinRow
	pending []joinRow
	curT    rel.Tuple
	curLin  Lineage
	outT    rel.Tuple
	outLin  Lineage
}

type joinRow struct {
	t   rel.Tuple
	lin Lineage
}

func packKey(t rel.Tuple, idx []int) uint64 {
	var k uint64
	for _, i := range idx {
		k = k<<16 | uint64(uint16(t[i]))
	}
	return k
}

func (it *joinIter) Next() (rel.Tuple, Lineage, bool, error) {
	if !it.built {
		it.table = map[uint64][]joinRow{}
		for {
			t, lin, ok, err := it.r.Next()
			if err != nil {
				return nil, nil, false, err
			}
			if !ok {
				break
			}
			k := packKey(t, it.rKey)
			it.table[k] = append(it.table[k], joinRow{t: t.Clone(), lin: lin.Clone()})
		}
		if err := it.r.Close(); err != nil {
			return nil, nil, false, err
		}
		it.built = true
	}
	for {
		if len(it.pending) > 0 {
			m := it.pending[0]
			it.pending = it.pending[1:]
			it.outT = append(it.outT[:0], it.curT...)
			for _, i := range it.rExtra {
				it.outT = append(it.outT, m.t[i])
			}
			it.outLin = append(append(it.outLin[:0], it.curLin...), m.lin...)
			return it.outT, it.outLin, true, nil
		}
		t, lin, ok, err := it.l.Next()
		if err != nil || !ok {
			return nil, nil, false, err
		}
		it.curT, it.curLin = t, lin
		it.pending = it.table[packKey(t, it.lKey)]
	}
}

func (it *joinIter) Close() error {
	err := it.l.Close()
	if e := it.r.Close(); err == nil {
		err = e
	}
	return err
}

// unionIter streams the left input (recording keys), then the right
// input minus what the left already produced.
type unionIter struct {
	l, r    Iterator
	seen    map[uint64]struct{}
	onRight bool
}

func (it *unionIter) Next() (rel.Tuple, Lineage, bool, error) {
	for {
		var t rel.Tuple
		var lin Lineage
		var ok bool
		var err error
		if !it.onRight {
			t, lin, ok, err = it.l.Next()
			if err != nil {
				return nil, nil, false, err
			}
			if !ok {
				it.onRight = true
				continue
			}
		} else {
			t, lin, ok, err = it.r.Next()
			if err != nil || !ok {
				return nil, nil, false, err
			}
		}
		k := t.Key()
		if _, dup := it.seen[k]; dup {
			continue
		}
		it.seen[k] = struct{}{}
		return t, lin, true, nil
	}
}

func (it *unionIter) Close() error {
	err := it.l.Close()
	if e := it.r.Close(); err == nil {
		err = e
	}
	return err
}

// diffIter drains the right input into a key set on first Next, then
// streams left tuples absent from it. Lineage is the left witness
// (the positive part; ToFormula carries the negation for engines).
type diffIter struct {
	l, r  Iterator
	built bool
	right map[uint64]struct{}
}

func (it *diffIter) Next() (rel.Tuple, Lineage, bool, error) {
	if !it.built {
		it.right = map[uint64]struct{}{}
		for {
			t, _, ok, err := it.r.Next()
			if err != nil {
				return nil, nil, false, err
			}
			if !ok {
				break
			}
			it.right[t.Key()] = struct{}{}
		}
		if err := it.r.Close(); err != nil {
			return nil, nil, false, err
		}
		it.built = true
	}
	for {
		t, lin, ok, err := it.l.Next()
		if err != nil || !ok {
			return nil, nil, false, err
		}
		if _, drop := it.right[t.Key()]; drop {
			continue
		}
		return t, lin, true, nil
	}
}

func (it *diffIter) Close() error {
	err := it.l.Close()
	if e := it.r.Close(); err == nil {
		err = e
	}
	return err
}
