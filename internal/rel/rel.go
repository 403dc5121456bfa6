// Package rel implements finite relational structures: the databases of
// the PODS 1998 paper "The Complexity of Query Reliability".
//
// A structure has a universe {0, ..., N-1}, a vocabulary of relation
// symbols with fixed arities (plus optional named constants), and one
// finite relation per symbol. Structures are the "observed databases" A
// of an unreliable database (A, mu), and also the sampled/enumerated
// possible worlds B in the probability space Omega(D).
package rel

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// MaxArity is the largest relation arity supported by the tuple encoding.
// Components are packed 16 bits each into a uint64 key.
const MaxArity = 4

// MaxUniverse is the largest universe size supported by the tuple encoding.
const MaxUniverse = 1 << 16

// RelSym is a relation symbol: a name together with an arity.
type RelSym struct {
	Name  string
	Arity int
}

// String returns the conventional Name/Arity rendering, e.g. "E/2".
func (s RelSym) String() string { return fmt.Sprintf("%s/%d", s.Name, s.Arity) }

// Vocabulary is a finite list of relation symbols and constant names.
// The order of Rels is significant: it defines the canonical atom order
// used when enumerating ground atoms.
type Vocabulary struct {
	Rels   []RelSym
	Consts []string
}

// NewVocabulary builds a vocabulary from relation symbols, validating
// names and arities.
func NewVocabulary(rels ...RelSym) (*Vocabulary, error) {
	v := &Vocabulary{}
	for _, r := range rels {
		if err := v.AddRel(r); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// MustVocabulary is NewVocabulary that panics on error; intended for
// statically known vocabularies in tests and examples.
func MustVocabulary(rels ...RelSym) *Vocabulary {
	v, err := NewVocabulary(rels...)
	if err != nil {
		panic(err)
	}
	return v
}

// AddRel appends a relation symbol, rejecting duplicates and bad arities.
func (v *Vocabulary) AddRel(r RelSym) error {
	if r.Name == "" {
		return fmt.Errorf("rel: empty relation name")
	}
	if r.Arity < 0 || r.Arity > MaxArity {
		return fmt.Errorf("rel: relation %s: arity %d out of range [0,%d]", r.Name, r.Arity, MaxArity)
	}
	if _, ok := v.Rel(r.Name); ok {
		return fmt.Errorf("rel: duplicate relation symbol %q", r.Name)
	}
	v.Rels = append(v.Rels, r)
	return nil
}

// AddConst appends a constant name, rejecting duplicates.
func (v *Vocabulary) AddConst(name string) error {
	if name == "" {
		return fmt.Errorf("rel: empty constant name")
	}
	for _, c := range v.Consts {
		if c == name {
			return fmt.Errorf("rel: duplicate constant %q", name)
		}
	}
	v.Consts = append(v.Consts, name)
	return nil
}

// Rel looks up a relation symbol by name.
func (v *Vocabulary) Rel(name string) (RelSym, bool) {
	for _, r := range v.Rels {
		if r.Name == name {
			return r, true
		}
	}
	return RelSym{}, false
}

// Clone returns a deep copy of the vocabulary.
func (v *Vocabulary) Clone() *Vocabulary {
	w := &Vocabulary{
		Rels:   append([]RelSym(nil), v.Rels...),
		Consts: append([]string(nil), v.Consts...),
	}
	return w
}

// String renders the vocabulary as "E/2, S/1; consts a, b".
func (v *Vocabulary) String() string {
	var b strings.Builder
	for i, r := range v.Rels {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(r.String())
	}
	if len(v.Consts) > 0 {
		b.WriteString("; consts ")
		b.WriteString(strings.Join(v.Consts, ", "))
	}
	return b.String()
}

// Tuple is a tuple of universe elements.
type Tuple []int

// String renders a tuple as "(1,2,3)".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, e := range t {
		parts[i] = fmt.Sprint(e)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Equal reports whether two tuples have the same length and components.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Key packs a tuple into a uint64 map key (16 bits per component).
// It panics if a component is outside [0, MaxUniverse) or the arity
// exceeds MaxArity; both limits are documented package invariants that
// constructors enforce earlier with proper errors.
func (t Tuple) Key() uint64 {
	if len(t) > MaxArity {
		panic(fmt.Sprintf("rel: tuple arity %d exceeds MaxArity %d", len(t), MaxArity))
	}
	var k uint64
	for _, e := range t {
		if e < 0 || e >= MaxUniverse {
			panic(fmt.Sprintf("rel: tuple component %d outside [0,%d)", e, MaxUniverse))
		}
		k = k<<16 | uint64(e)
	}
	return k
}

// KeyToTuple unpacks a key produced by Tuple.Key back into a tuple of the
// given arity.
func KeyToTuple(k uint64, arity int) Tuple {
	return UnpackKey(k, make(Tuple, arity))
}

// UnpackKey fills t with the components of key k, the last component
// from the low 16 bits, and returns it: KeyToTuple into the caller's
// buffer.
func UnpackKey(k uint64, t Tuple) Tuple {
	for i := len(t) - 1; i >= 0; i-- {
		t[i] = int(k & 0xffff)
		k >>= 16
	}
	return t
}

// maxDenseTuples caps the tuple space A^arity a relation may be laid
// out densely over at 2^22 tuples: a dense relation's bitset is at most
// 512 KiB, and turning a hash set into one copies at most that much.
// Larger tuple spaces always keep the hash set.
const maxDenseTuples = 1 << 22

// smallDenseWords is the largest bitset, in 64-bit words, that a
// relation takes while still empty: 64 bytes (512 tuples), about what
// an empty hash set costs. A larger bitset is taken only once it costs
// no more than the keys the hash set holds (see grew).
const smallDenseWords = 8

// Relation is a finite relation of fixed arity over the universe.
//
// A relation built by NewStructure knows its universe {0..n-1} and can
// be dense: a bitset over A^Arity in which tuple ā is bit rank(ā), its
// mixed-radix value in base n with the first component most significant
// (see FoldRank) — so rank order is Tuple.Key order. It is dense from
// the start when its bitset fits smallDenseWords, and otherwise turns
// dense once it holds as many tuples as the bitset has words — when
// the bitset costs at most 8 bytes per tuple held, no more than the
// hash set's keys — provided n^Arity is at most maxDenseTuples. So a
// relation's memory follows the tuples it has held, never its tuple
// space alone, and a walk of a dense relation reads at most eight
// words or one per tuple it held at its fullest. A dense relation stays
// dense. Any
// other relation (NewRelation, which knows no universe, or a sparse
// one) is a hash set of keys. Both behave identically; a relation that
// knows its universe holds no tuple outside it.
type Relation struct {
	Arity int
	// set holds a sparse relation's keys; nil for a dense relation.
	set map[uint64]struct{}
	// words is a dense relation's bitset over n^Arity = size tuples,
	// count of them set.
	words []uint64
	count int
	// n is the universe size (-1 when unknown); size is n^Arity, or -1
	// when the relation can never be dense.
	n, size int
}

// NewRelation creates an empty relation of the given arity.
func NewRelation(arity int) *Relation {
	return &Relation{Arity: arity, set: make(map[uint64]struct{}), n: -1, size: -1}
}

// newRelationOver creates an empty relation of the given arity over
// the universe {0..n-1}.
func newRelationOver(arity, n int) *Relation {
	r := &Relation{Arity: arity, n: n, size: TupleCount(n, arity)}
	if r.size > maxDenseTuples {
		r.size = -1
	}
	if r.size >= 0 && denseWords(r.size) <= smallDenseWords {
		r.words = make([]uint64, denseWords(r.size))
	} else {
		r.set = make(map[uint64]struct{})
	}
	return r
}

// denseWords is the length of a bitset over size tuples.
func denseWords(size int) int { return (size + 63) / 64 }

// grew turns a sparse relation that has just gained a tuple dense once
// it holds as many tuples as its bitset would have words.
func (r *Relation) grew() {
	if r.size >= 0 && len(r.set) >= denseWords(r.size) {
		r.densify()
	}
}

// densify lays a sparse relation out as a bitset; the caller vouches
// that its tuple space is at most maxDenseTuples (size ≥ 0).
func (r *Relation) densify() {
	r.words = make([]uint64, denseWords(r.size))
	for k := range r.set {
		i := r.keyRank(k)
		r.words[i>>6] |= 1 << (i & 63)
	}
	r.count, r.set = len(r.set), nil
}

// Universe returns the universe size a dense relation is laid out
// over, or -1 for a sparse relation.
func (r *Relation) Universe() int {
	if r.set != nil {
		return -1
	}
	return r.n
}

// FoldRank appends element e to the rank of a tuple prefix over a
// universe of n elements: a tuple's rank is its mixed-radix value in
// base n, first component most significant, so folding ā's components
// into 0 in order gives ā's bit in a dense relation.
func FoldRank(rank, n, e int) int { return rank*n + e }

// Rank returns t's bit in a dense relation — its index in ForEachTuple
// order — or -1 when the relation is sparse or t is not a tuple of its
// A^Arity.
func (r *Relation) Rank(t Tuple) int {
	if r.set != nil || len(t) != r.Arity {
		return -1
	}
	i := 0
	for _, e := range t {
		if e < 0 || e >= r.n {
			return -1
		}
		i = FoldRank(i, r.n, e)
	}
	return i
}

// keyRank is Rank for a packed key of the relation's arity and known
// universe, whether or not the relation is dense yet.
func (r *Relation) keyRank(k uint64) int {
	i := 0
	for sh := 16 * (r.Arity - 1); sh >= 0; sh -= 16 {
		e := int(k >> uint(sh) & 0xffff)
		if e >= r.n {
			return -1
		}
		i = FoldRank(i, r.n, e)
	}
	return i
}

// unrank fills t with the tuple of rank i in a dense relation.
func (r *Relation) unrank(i int, t Tuple) Tuple {
	for j := len(t) - 1; j >= 0; j-- {
		t[j], i = i%r.n, i/r.n
	}
	return t
}

// ContainsRank reports whether a dense relation holds on the tuple of
// rank i; ranks outside [0, n^Arity) hold nowhere. The caller vouches
// that the relation is dense.
func (r *Relation) ContainsRank(i int) bool {
	return uint(i) < uint(r.size) && r.words[i>>6]>>(i&63)&1 != 0
}

// ToggleRank flips membership of the tuple of rank i in a dense
// relation and reports the new membership value. The caller vouches
// that the relation is dense and i a rank of it.
func (r *Relation) ToggleRank(i int) bool {
	w := &r.words[i>>6]
	*w ^= 1 << (i & 63)
	if *w>>(i&63)&1 != 0 {
		r.count++
		return true
	}
	r.count--
	return false
}

// Contains reports whether the relation holds on t.
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != r.Arity {
		return false
	}
	if r.set == nil {
		return r.ContainsRank(r.Rank(t))
	}
	_, ok := r.set[t.Key()]
	return ok
}

// ContainsKey reports whether the relation holds on the tuple whose
// Tuple.Key is k. The caller vouches for the key's arity.
func (r *Relation) ContainsKey(k uint64) bool {
	if r.set == nil {
		return r.ContainsRank(r.keyRank(k))
	}
	_, ok := r.set[k]
	return ok
}

// denseRank is Rank for a tuple that must be stored: it panics when t
// lies outside a dense relation's universe.
func (r *Relation) denseRank(t Tuple) int {
	i := r.Rank(t)
	if i < 0 {
		r.outside(t)
	}
	return i
}

// sparseKey is Key for a tuple that must be stored in a sparse
// relation: it panics when the relation knows its universe and t lies
// outside it, as denseRank does.
func (r *Relation) sparseKey(t Tuple) uint64 {
	for _, e := range t {
		if r.n >= 0 && (e < 0 || e >= r.n) {
			r.outside(t)
		}
	}
	return t.Key()
}

// outside panics on storing t outside the relation's universe; only
// tuples Structure.Add has validated reach a relation's store.
func (r *Relation) outside(t Tuple) {
	panic(fmt.Sprintf("rel: tuple %v outside universe [0,%d)", t, r.n))
}

// Add inserts t into the relation. Adding an existing tuple is a no-op.
func (r *Relation) Add(t Tuple) {
	if len(t) != r.Arity {
		panic(fmt.Sprintf("rel: adding tuple of arity %d to relation of arity %d", len(t), r.Arity))
	}
	if r.set == nil {
		if i := r.denseRank(t); !r.ContainsRank(i) {
			r.ToggleRank(i)
		}
		return
	}
	r.set[r.sparseKey(t)] = struct{}{}
	r.grew()
}

// Remove deletes t from the relation. Removing a missing tuple is a no-op.
func (r *Relation) Remove(t Tuple) {
	if len(t) != r.Arity {
		return
	}
	if r.set == nil {
		if i := r.Rank(t); r.ContainsRank(i) {
			r.ToggleRank(i)
		}
		return
	}
	delete(r.set, t.Key())
}

// Toggle flips membership of t and reports the new membership value.
func (r *Relation) Toggle(t Tuple) bool {
	if r.set == nil {
		return r.ToggleRank(r.denseRank(t))
	}
	k := r.sparseKey(t)
	if _, ok := r.set[k]; ok {
		delete(r.set, k)
		return false
	}
	r.set[k] = struct{}{}
	r.grew()
	return true
}

// Len returns the number of tuples in the relation.
func (r *Relation) Len() int {
	if r.set == nil {
		return r.count
	}
	return len(r.set)
}

// ForEach calls fn for every tuple in the relation, in unspecified
// order, stopping early if fn returns false. The tuple passed to fn is
// freshly decoded and may be retained. Prefer this over Tuples in inner
// loops: it builds no slice, and sorts nothing on a sparse relation.
func (r *Relation) ForEach(fn func(Tuple) bool) {
	if r.set == nil {
		for c := r.Cursor(); ; {
			t, ok := c.Next()
			if !ok || !fn(t.Clone()) {
				return
			}
		}
	}
	for k := range r.set {
		if !fn(KeyToTuple(k, r.Arity)) {
			return
		}
	}
}

// Tuples returns all tuples in the relation in sorted (key) order: a
// Cursor's walk, copied out.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, 0, r.Len())
	// One backing array for every tuple; each is capped so an append to
	// one cannot overwrite the next.
	slab := make([]int, r.Len()*r.Arity)
	for c := r.Cursor(); ; {
		t, ok := c.Next()
		if !ok {
			return out
		}
		u := Tuple(slab[:r.Arity:r.Arity])
		copy(u, t)
		out = append(out, u)
		slab = slab[r.Arity:]
	}
}

// Cursor walks a relation's tuples in key order, the order of Tuples,
// decoding each into one tuple it reuses. A dense relation walks its
// bitset words; a sparse one sorts its keys once, when the cursor is
// made. Mutating the relation during a walk is unsupported: the walk
// may then skip, repeat or invent tuples.
type Cursor struct {
	r *Relation
	t Tuple
	// A dense walk is at bitset word w, with word its bits not yet
	// visited; a sparse walk has keys left to visit, ascending.
	dense bool
	w     int
	word  uint64
	keys  []uint64
}

// Cursor returns a cursor before the relation's first tuple.
func (r *Relation) Cursor() *Cursor {
	c := &Cursor{r: r, t: make(Tuple, r.Arity), dense: r.set == nil, w: -1}
	if !c.dense {
		c.keys = make([]uint64, 0, len(r.set))
		for k := range r.set {
			c.keys = append(c.keys, k)
		}
		slices.Sort(c.keys)
	}
	return c
}

// Next returns the next tuple, or false once the walk is done. The
// tuple is the cursor's own and is overwritten by the following call;
// clone it to keep it. Next does not allocate.
func (c *Cursor) Next() (Tuple, bool) {
	if !c.dense {
		if len(c.keys) == 0 {
			return nil, false
		}
		k := c.keys[0]
		c.keys = c.keys[1:]
		return UnpackKey(k, c.t), true
	}
	for c.word == 0 {
		if c.w+1 >= len(c.r.words) {
			return nil, false
		}
		c.w++
		c.word = c.r.words[c.w]
	}
	i := c.w<<6 | bits.TrailingZeros64(c.word)
	c.word &= c.word - 1
	return c.r.unrank(i, c.t), true
}

// Clone returns a deep copy of the relation, in the same representation.
func (r *Relation) Clone() *Relation {
	c := *r
	if r.set == nil {
		c.words = slices.Clone(r.words)
	} else {
		c.set = maps.Clone(r.set)
	}
	return &c
}

// Equal reports whether two relations contain exactly the same tuples,
// whatever their representations.
func (r *Relation) Equal(o *Relation) bool {
	if r.Arity != o.Arity || r.Len() != o.Len() {
		return false
	}
	if r.set == nil && o.set == nil && r.n == o.n {
		return slices.Equal(r.words, o.words)
	}
	eq := true
	r.ForEach(func(t Tuple) bool {
		eq = o.Contains(t)
		return eq
	})
	return eq
}

// Structure is a finite relational structure: a universe {0..N-1}, a
// vocabulary, one relation per symbol, and an interpretation of the
// constants.
type Structure struct {
	N      int
	Voc    *Vocabulary
	Rels   map[string]*Relation
	Consts map[string]int
}

// NewStructure creates a structure with universe size n over voc, with
// all relations empty and all constants interpreted as element 0. Its
// relations know the universe, so each turns dense when that is cheap
// (see Relation).
func NewStructure(n int, voc *Vocabulary) (*Structure, error) {
	if n < 0 || n > MaxUniverse {
		return nil, fmt.Errorf("rel: universe size %d out of range [0,%d]", n, MaxUniverse)
	}
	s := &Structure{
		N:      n,
		Voc:    voc,
		Rels:   make(map[string]*Relation, len(voc.Rels)),
		Consts: make(map[string]int, len(voc.Consts)),
	}
	for _, r := range voc.Rels {
		s.Rels[r.Name] = newRelationOver(r.Arity, n)
	}
	for _, c := range voc.Consts {
		s.Consts[c] = 0
	}
	return s, nil
}

// MustStructure is NewStructure that panics on error.
func MustStructure(n int, voc *Vocabulary) *Structure {
	s, err := NewStructure(n, voc)
	if err != nil {
		panic(err)
	}
	return s
}

// Rel returns the relation for name, or nil if the symbol is unknown.
func (s *Structure) Rel(name string) *Relation { return s.Rels[name] }

// Holds reports whether the named relation holds on t. Unknown relation
// names report false.
func (s *Structure) Holds(name string, t Tuple) bool {
	r := s.Rels[name]
	return r != nil && r.Contains(t)
}

// Add inserts t into the named relation, validating element range.
func (s *Structure) Add(name string, t Tuple) error {
	r := s.Rels[name]
	if r == nil {
		return fmt.Errorf("rel: unknown relation %q", name)
	}
	if len(t) != r.Arity {
		return fmt.Errorf("rel: %s expects arity %d, got tuple %v", name, r.Arity, t)
	}
	for _, e := range t {
		if e < 0 || e >= s.N {
			return fmt.Errorf("rel: element %d outside universe [0,%d)", e, s.N)
		}
	}
	r.Add(t)
	return nil
}

// MustAdd is Add that panics on error.
func (s *Structure) MustAdd(name string, t ...int) {
	if err := s.Add(name, Tuple(t)); err != nil {
		panic(err)
	}
}

// SetConst interprets the named constant as element e.
func (s *Structure) SetConst(name string, e int) error {
	if _, ok := s.Consts[name]; !ok {
		return fmt.Errorf("rel: unknown constant %q", name)
	}
	if e < 0 || e >= s.N {
		return fmt.Errorf("rel: constant %s: element %d outside universe [0,%d)", name, e, s.N)
	}
	s.Consts[name] = e
	return nil
}

// Clone returns a deep copy of the structure (sharing the vocabulary,
// which is immutable by convention once a structure is built on it).
func (s *Structure) Clone() *Structure {
	c := &Structure{
		N:      s.N,
		Voc:    s.Voc,
		Rels:   make(map[string]*Relation, len(s.Rels)),
		Consts: make(map[string]int, len(s.Consts)),
	}
	for name, r := range s.Rels {
		c.Rels[name] = r.Clone()
	}
	for name, e := range s.Consts {
		c.Consts[name] = e
	}
	return c
}

// Equal reports whether two structures have the same universe size and
// exactly the same relations and constant interpretations. Vocabularies
// are compared by the relation contents, not by pointer.
func (s *Structure) Equal(o *Structure) bool {
	if s.N != o.N || len(s.Rels) != len(o.Rels) || len(s.Consts) != len(o.Consts) {
		return false
	}
	for name, r := range s.Rels {
		or, ok := o.Rels[name]
		if !ok || !r.Equal(or) {
			return false
		}
	}
	for name, e := range s.Consts {
		oe, ok := o.Consts[name]
		if !ok || e != oe {
			return false
		}
	}
	return true
}

// FactCount returns the total number of tuples across all relations.
func (s *Structure) FactCount() int {
	total := 0
	for _, r := range s.Rels {
		total += r.Len()
	}
	return total
}

// String renders the structure compactly for debugging.
func (s *Structure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "structure(n=%d", s.N)
	names := make([]string, 0, len(s.Rels))
	for name := range s.Rels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := s.Rels[name]
		fmt.Fprintf(&b, "; %s=", name)
		for i, t := range r.Tuples() {
			if i > 0 {
				b.WriteString(" ")
			}
			b.WriteString(t.String())
		}
	}
	if len(s.Consts) > 0 {
		cs := make([]string, 0, len(s.Consts))
		for name := range s.Consts {
			cs = append(cs, name)
		}
		sort.Strings(cs)
		for _, name := range cs {
			fmt.Fprintf(&b, "; %s=%d", name, s.Consts[name])
		}
	}
	b.WriteString(")")
	return b.String()
}

// ForEachTuple calls fn for every tuple in A^arity in lexicographic
// order, stopping early if fn returns false. The tuple passed to fn is
// reused between calls; clone it if it must be retained.
func ForEachTuple(n, arity int, fn func(Tuple) bool) {
	if arity == 0 {
		fn(Tuple{})
		return
	}
	if n == 0 {
		return
	}
	t := make(Tuple, arity)
	for {
		if !fn(t) {
			return
		}
		i := arity - 1
		for i >= 0 {
			t[i]++
			if t[i] < n {
				break
			}
			t[i] = 0
			i--
		}
		if i < 0 {
			return
		}
	}
}

// TupleCount returns n^arity as an int, or -1 on overflow.
func TupleCount(n, arity int) int {
	c := 1
	for i := 0; i < arity; i++ {
		if n != 0 && c > int(^uint(0)>>1)/n {
			return -1
		}
		c *= n
	}
	return c
}
