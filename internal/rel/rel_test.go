package rel

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestVocabulary(t *testing.T) {
	v, err := NewVocabulary(RelSym{"E", 2}, RelSym{"S", 1})
	if err != nil {
		t.Fatalf("NewVocabulary: %v", err)
	}
	if got := v.String(); got != "E/2, S/1" {
		t.Errorf("String() = %q", got)
	}
	if _, ok := v.Rel("E"); !ok {
		t.Error("Rel(E) not found")
	}
	if _, ok := v.Rel("X"); ok {
		t.Error("Rel(X) unexpectedly found")
	}
	if err := v.AddRel(RelSym{"E", 3}); err == nil {
		t.Error("duplicate relation accepted")
	}
	if err := v.AddRel(RelSym{"", 1}); err == nil {
		t.Error("empty relation name accepted")
	}
	if err := v.AddRel(RelSym{"Big", MaxArity + 1}); err == nil {
		t.Error("oversized arity accepted")
	}
	if err := v.AddConst("c"); err != nil {
		t.Errorf("AddConst: %v", err)
	}
	if err := v.AddConst("c"); err == nil {
		t.Error("duplicate constant accepted")
	}
	c := v.Clone()
	c.Rels[0].Name = "Z"
	if v.Rels[0].Name != "E" {
		t.Error("Clone shares Rels slice")
	}
}

func TestTupleKeyRoundTrip(t *testing.T) {
	f := func(a, b, c, d uint16) bool {
		tup := Tuple{int(a), int(b), int(c), int(d)}
		return KeyToTuple(tup.Key(), 4).Equal(tup)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleKeyDistinct(t *testing.T) {
	// Keys of distinct same-arity tuples must differ.
	seen := map[uint64]Tuple{}
	ForEachTuple(7, 3, func(tp Tuple) bool {
		k := tp.Key()
		if prev, ok := seen[k]; ok {
			t.Fatalf("key collision: %v and %v", prev, tp)
		}
		seen[k] = tp.Clone()
		return true
	})
	if len(seen) != 343 {
		t.Errorf("enumerated %d tuples, want 343", len(seen))
	}
}

func TestTupleKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Key() on oversized component did not panic")
		}
	}()
	Tuple{MaxUniverse}.Key()
}

func TestRelationBasics(t *testing.T) {
	r := NewRelation(2)
	if r.Contains(Tuple{0, 1}) {
		t.Error("empty relation contains tuple")
	}
	r.Add(Tuple{0, 1})
	r.Add(Tuple{0, 1})
	r.Add(Tuple{2, 3})
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
	if !r.Contains(Tuple{0, 1}) {
		t.Error("Contains(0,1) = false")
	}
	if r.Contains(Tuple{1, 0}) {
		t.Error("Contains(1,0) = true")
	}
	if r.Contains(Tuple{0}) {
		t.Error("wrong-arity Contains = true")
	}
	r.Remove(Tuple{0, 1})
	if r.Contains(Tuple{0, 1}) {
		t.Error("tuple present after Remove")
	}
	if got := r.Toggle(Tuple{2, 3}); got {
		t.Error("Toggle of present tuple reported true")
	}
	if got := r.Toggle(Tuple{2, 3}); !got {
		t.Error("Toggle of absent tuple reported false")
	}
	tuples := r.Tuples()
	if len(tuples) != 1 || !tuples[0].Equal(Tuple{2, 3}) {
		t.Errorf("Tuples() = %v", tuples)
	}
}

func TestRelationCloneEqual(t *testing.T) {
	r := NewRelation(2)
	r.Add(Tuple{1, 2})
	r.Add(Tuple{3, 4})
	c := r.Clone()
	if !r.Equal(c) {
		t.Error("clone not equal")
	}
	c.Add(Tuple{5, 6})
	if r.Equal(c) {
		t.Error("clone mutation affected equality unexpectedly")
	}
	if r.Contains(Tuple{5, 6}) {
		t.Error("clone shares storage")
	}
}

func TestStructureBasics(t *testing.T) {
	voc := MustVocabulary(RelSym{"E", 2}, RelSym{"S", 1})
	voc.AddConst("c")
	s := MustStructure(5, voc)
	if err := s.Add("E", Tuple{0, 1}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := s.Add("E", Tuple{0, 9}); err == nil {
		t.Error("out-of-universe element accepted")
	}
	if err := s.Add("E", Tuple{0}); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := s.Add("X", Tuple{0}); err == nil {
		t.Error("unknown relation accepted")
	}
	if !s.Holds("E", Tuple{0, 1}) || s.Holds("E", Tuple{1, 0}) {
		t.Error("Holds wrong")
	}
	if err := s.SetConst("c", 3); err != nil {
		t.Errorf("SetConst: %v", err)
	}
	if err := s.SetConst("c", 17); err == nil {
		t.Error("expected error missing for out-of-range const")
	}
	if s.Consts["c"] != 3 {
		t.Error("failed SetConst mutated value")
	}
	if err := s.SetConst("d", 0); err == nil {
		t.Error("unknown constant accepted")
	}
}

func TestStructureCloneEqual(t *testing.T) {
	voc := MustVocabulary(RelSym{"E", 2})
	s := MustStructure(4, voc)
	s.MustAdd("E", 0, 1)
	s.MustAdd("E", 2, 3)
	c := s.Clone()
	if !s.Equal(c) {
		t.Error("clone not Equal")
	}
	c.MustAdd("E", 1, 1)
	if s.Equal(c) {
		t.Error("Equal after divergence")
	}
	if s.Holds("E", Tuple{1, 1}) {
		t.Error("clone shares relation storage")
	}
	if s.FactCount() != 2 || c.FactCount() != 3 {
		t.Errorf("FactCount = %d, %d", s.FactCount(), c.FactCount())
	}
}

func TestForEachTuple(t *testing.T) {
	var got []Tuple
	ForEachTuple(3, 2, func(tp Tuple) bool {
		got = append(got, tp.Clone())
		return true
	})
	if len(got) != 9 {
		t.Fatalf("got %d tuples, want 9", len(got))
	}
	if !got[0].Equal(Tuple{0, 0}) || !got[8].Equal(Tuple{2, 2}) {
		t.Errorf("order wrong: first %v last %v", got[0], got[8])
	}
	// Arity 0 yields exactly the empty tuple.
	count := 0
	ForEachTuple(3, 0, func(tp Tuple) bool {
		count++
		if len(tp) != 0 {
			t.Errorf("arity-0 tuple %v", tp)
		}
		return true
	})
	if count != 1 {
		t.Errorf("arity-0 count = %d, want 1", count)
	}
	// Empty universe with positive arity yields nothing.
	count = 0
	ForEachTuple(0, 2, func(Tuple) bool { count++; return true })
	if count != 0 {
		t.Errorf("n=0 count = %d, want 0", count)
	}
	// Early stop.
	count = 0
	ForEachTuple(3, 2, func(Tuple) bool { count++; return count < 4 })
	if count != 4 {
		t.Errorf("early-stop count = %d, want 4", count)
	}
}

func TestTupleCount(t *testing.T) {
	cases := []struct{ n, k, want int }{
		{3, 2, 9}, {1, 5, 1}, {0, 0, 1}, {0, 3, 0}, {10, 0, 1}, {2, 10, 1024},
	}
	for _, c := range cases {
		if got := TupleCount(c.n, c.k); got != c.want {
			t.Errorf("TupleCount(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
	if got := TupleCount(1<<20, 4); got != -1 {
		t.Errorf("overflow TupleCount = %d, want -1", got)
	}
}

func TestGroundAtoms(t *testing.T) {
	voc := MustVocabulary(RelSym{"E", 2}, RelSym{"S", 1})
	s := MustStructure(3, voc)
	var atoms []GroundAtom
	s.ForEachGroundAtom(func(a GroundAtom) bool {
		atoms = append(atoms, GroundAtom{Rel: a.Rel, Args: a.Args.Clone()})
		return true
	})
	if len(atoms) != 9+3 {
		t.Fatalf("got %d ground atoms, want 12", len(atoms))
	}
	if got := s.GroundAtomCount(); got != 12 {
		t.Errorf("GroundAtomCount = %d, want 12", got)
	}
	if atoms[0].Rel != "E" || atoms[9].Rel != "S" {
		t.Error("vocabulary order not respected")
	}
	a := GroundAtom{Rel: "E", Args: Tuple{1, 2}}
	if a.String() != "E(1,2)" {
		t.Errorf("String = %q", a.String())
	}
	if !a.Key().Atom().Equal(a) {
		t.Error("AtomKey round trip failed")
	}
	b := GroundAtom{Rel: "E", Args: Tuple{2, 1}}
	if a.Key() == b.Key() {
		t.Error("distinct atoms share key")
	}
	// Early stop.
	count := 0
	s.ForEachGroundAtom(func(GroundAtom) bool { count++; return count < 5 })
	if count != 5 {
		t.Errorf("early-stop count = %d", count)
	}
}

func TestAtomKeyDistinctAcrossRelations(t *testing.T) {
	a := GroundAtom{Rel: "R", Args: Tuple{1}}
	b := GroundAtom{Rel: "S", Args: Tuple{1}}
	if a.Key() == b.Key() {
		t.Error("same tuple in different relations shares key")
	}
}

func TestStructureString(t *testing.T) {
	voc := MustVocabulary(RelSym{"E", 2})
	voc.AddConst("c")
	s := MustStructure(2, voc)
	s.MustAdd("E", 0, 1)
	got := s.String()
	want := "structure(n=2; E=(0,1); c=0)"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestRandomizedStructureEquality(t *testing.T) {
	// Property: Clone() is Equal; mutating exactly one fact breaks Equal.
	rng := rand.New(rand.NewSource(42))
	voc := MustVocabulary(RelSym{"E", 2}, RelSym{"S", 1})
	for iter := 0; iter < 50; iter++ {
		n := 2 + rng.Intn(5)
		s := MustStructure(n, voc)
		for i := 0; i < rng.Intn(10); i++ {
			s.MustAdd("E", rng.Intn(n), rng.Intn(n))
		}
		for i := 0; i < rng.Intn(5); i++ {
			s.MustAdd("S", rng.Intn(n))
		}
		c := s.Clone()
		if !s.Equal(c) || !c.Equal(s) {
			t.Fatal("clone not equal")
		}
		c.Rel("E").Toggle(Tuple{rng.Intn(n), rng.Intn(n)})
		if s.Equal(c) {
			t.Fatal("single toggle preserved equality")
		}
	}
}

func TestRelationForEach(t *testing.T) {
	r := NewRelation(2)
	r.Add(Tuple{0, 1})
	r.Add(Tuple{2, 3})
	r.Add(Tuple{4, 5})
	seen := map[uint64]bool{}
	r.ForEach(func(tp Tuple) bool {
		seen[tp.Key()] = true
		return true
	})
	if len(seen) != 3 {
		t.Errorf("ForEach visited %d tuples", len(seen))
	}
	count := 0
	r.ForEach(func(Tuple) bool { count++; return false })
	if count != 1 {
		t.Errorf("early stop visited %d", count)
	}
}

// TestDenseProbesAllocFree: on a dense relation a membership probe is a
// bit test and a toggle a bit flip — neither allocates.
func TestDenseProbesAllocFree(t *testing.T) {
	s := MustStructure(16, MustVocabulary(RelSym{"E", 2}))
	r := s.Rel("E")
	if r.Universe() != 16 {
		t.Fatal("E over 16 elements is not dense")
	}
	tp := Tuple{3, 9}
	k := tp.Key()
	if allocs := testing.AllocsPerRun(100, func() {
		r.Toggle(tp)
		_ = r.ContainsKey(k)
	}); allocs > 0 {
		t.Errorf("Toggle + ContainsKey allocate %v objects, want 0", allocs)
	}
}

// TestDenseRankOrderIsKeyOrder: a dense relation's bit order is the
// Tuple.Key order, so its Tuples come out sorted without a sort.
func TestDenseRankOrderIsKeyOrder(t *testing.T) {
	r := MustStructure(5, MustVocabulary(RelSym{"T", 3})).Rel("T")
	prev := -1
	var last uint64
	ForEachTuple(5, 3, func(tp Tuple) bool {
		i := r.Rank(tp)
		if i != prev+1 || (i > 0 && tp.Key() <= last) {
			t.Fatalf("tuple %v: rank %d after %d, key %#x after %#x", tp, i, prev, tp.Key(), last)
		}
		prev, last = i, tp.Key()
		return true
	})
	for _, tp := range []Tuple{{5, 0, 0}, {0, -1, 0}, {0, 0}} {
		if r.Rank(tp) != -1 || r.Contains(tp) {
			t.Errorf("Rank(%v) = %d, want -1 outside the universe", tp, r.Rank(tp))
		}
	}
	if NewRelation(3).Rank(Tuple{0, 0, 0}) != -1 {
		t.Error("a sparse relation reports a rank")
	}
}

// TestRelationTurnsDenseWhenFull: over a large tuple space a relation
// starts as a hash set and turns dense once it holds one tuple per
// bitset word, when the bitset costs no more than its keys; it keeps
// its tuples across the change and stays dense when emptied. A small
// tuple space is dense from the start, and one past the cap never.
func TestRelationTurnsDenseWhenFull(t *testing.T) {
	voc := MustVocabulary(RelSym{"E", 2}, RelSym{"S", 1}, RelSym{"Q", 3})
	s := MustStructure(2048, voc)
	e := s.Rel("E") // 2048² = 2^22 tuples: 65 536 words
	if e.Universe() != -1 || s.Rel("Q").Universe() != -1 || s.Rel("S").Universe() != -1 {
		t.Fatal("a relation over a large tuple space is dense while empty")
	}
	if r := MustStructure(22, voc).Rel("S"); r.Universe() != 22 {
		t.Error("a unary relation over 22 elements is not dense from the start")
	}
	words := 1 << 16
	for i := 0; i < words-1; i++ {
		e.Add(Tuple{i % 2048, i / 2048 * 7})
	}
	want := e.Tuples()
	if e.Universe() != -1 {
		t.Fatalf("dense at %d tuples, below one per word", e.Len())
	}
	e.Add(Tuple{2047, 2047})
	if e.Universe() != 2048 || e.Len() != words {
		t.Fatalf("at %d tuples: Universe() = %d, want dense", e.Len(), e.Universe())
	}
	got := e.Tuples()
	if !got[len(got)-1].Equal(Tuple{2047, 2047}) || len(got) != len(want)+1 {
		t.Fatal("the last tuple did not survive the change")
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("tuple %d: %v after the change, %v before", i, got[i], want[i])
		}
	}
	for _, tp := range got {
		e.Remove(tp)
	}
	if e.Universe() != 2048 || e.Len() != 0 {
		t.Fatalf("emptied: Universe() = %d, Len() = %d", e.Universe(), e.Len())
	}
	q := MustStructure(2048, voc).Rel("Q") // 2^33 tuples: past the cap
	for i := 0; i < 100; i++ {
		q.Add(Tuple{i, i, i})
	}
	if q.Universe() != -1 {
		t.Error("a relation past the cap turned dense")
	}
}

// TestCursorWalksInKeyOrder: a cursor visits exactly the relation's
// tuples in Tuple.Key order — the order of Tuples — whatever the
// layout, including one that turned dense while it filled.
func TestCursorWalksInKeyOrder(t *testing.T) {
	voc := MustVocabulary(RelSym{"E", 2}, RelSym{"Z", 0})
	dense := MustStructure(6, voc).Rel("E")
	for _, tp := range []Tuple{{5, 0}, {0, 4}, {2, 5}, {1, 4}, {0, 0}} {
		dense.Add(tp)
	}
	sparse := NewRelation(2)
	overUniverse := MustStructure(2048, voc).Rel("E")
	for _, tp := range []Tuple{{7, 1}, {300, 2}, {0, 2047}, {7, 0}} {
		sparse.Add(tp)
		overUniverse.Add(tp)
	}
	// 128² tuples take 256 bitset words: sparse until 256 tuples held.
	densified := MustStructure(128, voc).Rel("E")
	rng := rand.New(rand.NewSource(7))
	for densified.Universe() == -1 {
		densified.Add(Tuple{rng.Intn(128), rng.Intn(128)})
	}
	nullary := MustStructure(3, voc).Rel("Z")
	nullary.Add(Tuple{})
	cases := []struct {
		name      string
		r         *Relation
		wantDense bool
	}{
		{"dense", dense, true},
		{"sparse", sparse, false},
		{"sparse over a universe", overUniverse, false},
		{"densified after filling", densified, true},
		{"empty dense", MustStructure(6, voc).Rel("E"), true},
		{"empty sparse", NewRelation(3), false},
		{"nullary", nullary, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if (tc.r.Universe() >= 0) != tc.wantDense {
				t.Fatalf("Universe() = %d: layout is not the one the case names", tc.r.Universe())
			}
			// The oracle: ForEach's tuples, sorted by key.
			var want []Tuple
			tc.r.ForEach(func(tp Tuple) bool { want = append(want, tp); return true })
			slices.SortFunc(want, func(a, b Tuple) int { return cmp.Compare(a.Key(), b.Key()) })
			var got []Tuple
			for c := tc.r.Cursor(); ; {
				tp, ok := c.Next()
				if !ok {
					if _, again := c.Next(); again {
						t.Fatal("Next after the end yielded a tuple")
					}
					break
				}
				got = append(got, tp.Clone())
			}
			tuples := tc.r.Tuples()
			if len(got) != len(want) || len(tuples) != len(want) {
				t.Fatalf("cursor %d tuples, Tuples %d, relation holds %d", len(got), len(tuples), len(want))
			}
			for i := range want {
				if !got[i].Equal(want[i]) || !tuples[i].Equal(want[i]) {
					t.Fatalf("tuple %d: cursor %v, Tuples %v, want %v", i, got[i], tuples[i], want[i])
				}
			}
		})
	}
}

// TestCursorNextAllocFree: walking a dense relation decodes into the
// cursor's one tuple; Next allocates nothing.
func TestCursorNextAllocFree(t *testing.T) {
	r := MustStructure(16, MustVocabulary(RelSym{"E", 2})).Rel("E")
	ForEachTuple(16, 2, func(tp Tuple) bool { r.Add(tp); return true })
	c := r.Cursor()
	if allocs := testing.AllocsPerRun(200, func() {
		if _, ok := c.Next(); !ok {
			t.Fatal("walk ended early")
		}
	}); allocs > 0 {
		t.Errorf("Cursor.Next allocates %v objects per call on a dense relation, want 0", allocs)
	}
}
