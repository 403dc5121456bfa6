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
	t := make(Tuple, arity)
	for i := arity - 1; i >= 0; i-- {
		t[i] = int(k & 0xffff)
		k >>= 16
	}
	return t
}

// Relation is a finite relation of fixed arity over the universe.
type Relation struct {
	Arity int
	set   map[uint64]struct{}
}

// NewRelation creates an empty relation of the given arity.
func NewRelation(arity int) *Relation {
	return &Relation{Arity: arity, set: make(map[uint64]struct{})}
}

// Contains reports whether the relation holds on t.
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != r.Arity {
		return false
	}
	_, ok := r.set[t.Key()]
	return ok
}

// ContainsKey reports whether the relation holds on the tuple whose
// Tuple.Key is k. The caller vouches for the key's arity.
func (r *Relation) ContainsKey(k uint64) bool {
	_, ok := r.set[k]
	return ok
}

// Add inserts t into the relation. Adding an existing tuple is a no-op.
func (r *Relation) Add(t Tuple) {
	if len(t) != r.Arity {
		panic(fmt.Sprintf("rel: adding tuple of arity %d to relation of arity %d", len(t), r.Arity))
	}
	r.set[t.Key()] = struct{}{}
}

// Remove deletes t from the relation. Removing a missing tuple is a no-op.
func (r *Relation) Remove(t Tuple) {
	if len(t) != r.Arity {
		return
	}
	delete(r.set, t.Key())
}

// Toggle flips membership of t and reports the new membership value.
func (r *Relation) Toggle(t Tuple) bool {
	k := t.Key()
	if _, ok := r.set[k]; ok {
		delete(r.set, k)
		return false
	}
	r.set[k] = struct{}{}
	return true
}

// Len returns the number of tuples in the relation.
func (r *Relation) Len() int { return len(r.set) }

// ForEach calls fn for every tuple in the relation, in unspecified
// order, stopping early if fn returns false. The tuple passed to fn is
// freshly decoded and may be retained. Prefer this over Tuples in inner
// loops: it avoids the sort.
func (r *Relation) ForEach(fn func(Tuple) bool) {
	for k := range r.set {
		if !fn(KeyToTuple(k, r.Arity)) {
			return
		}
	}
}

// Tuples returns all tuples in the relation in sorted (key) order.
func (r *Relation) Tuples() []Tuple {
	keys := make([]uint64, 0, len(r.set))
	for k := range r.set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]Tuple, len(keys))
	for i, k := range keys {
		out[i] = KeyToTuple(k, r.Arity)
	}
	return out
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	c := NewRelation(r.Arity)
	for k := range r.set {
		c.set[k] = struct{}{}
	}
	return c
}

// Equal reports whether two relations contain exactly the same tuples.
func (r *Relation) Equal(o *Relation) bool {
	if r.Arity != o.Arity || len(r.set) != len(o.set) {
		return false
	}
	for k := range r.set {
		if _, ok := o.set[k]; !ok {
			return false
		}
	}
	return true
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
// all relations empty and all constants interpreted as element 0.
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
		s.Rels[r.Name] = NewRelation(r.Arity)
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
