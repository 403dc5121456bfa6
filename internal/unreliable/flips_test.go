package unreliable

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"qrel/internal/rel"
)

// checkFlipIndex compares FlipIndex, for every ground atom of d's
// vocabulary over its universe, with the atom's position found by a
// linear search of UncertainAtoms and SureFlips; where the relation's
// index is dense, IndexRank at the atom's rank must agree too. A few
// atoms outside the vocabulary or universe must read as certain.
func checkFlipIndex(t *testing.T, d *DB) {
	t.Helper()
	uncertain, sure := d.UncertainAtoms(), d.SureFlips()
	d.A.ForEachGroundAtom(func(a rel.GroundAtom) bool {
		wantI, wantSure := -1, false
		for i, b := range uncertain {
			if a.Equal(b) {
				wantI = i
			}
		}
		for _, b := range sure {
			if a.Equal(b) {
				wantSure = true
			}
		}
		if i, s := d.FlipIndex(a); i != wantI || s != wantSure {
			t.Fatalf("FlipIndex(%v) = (%d, %v), want (%d, %v)", a, i, s, wantI, wantSure)
		}
		if x := d.RelFlips(a.Rel); x.Dense() {
			r := 0
			for _, e := range a.Args {
				r = rel.FoldRank(r, d.A.N, e)
			}
			if i, s := x.IndexRank(r); i != wantI || s != wantSure {
				t.Fatalf("IndexRank of %v (rank %d) = (%d, %v), want (%d, %v)", a, r, i, s, wantI, wantSure)
			}
		}
		return !t.Failed()
	})
	for _, sym := range d.A.Voc.Rels {
		for _, args := range []rel.Tuple{make(rel.Tuple, sym.Arity+1), outside(sym.Arity, d.A.N), outside(sym.Arity, -1)} {
			if args == nil {
				continue
			}
			if i, s := d.FlipIndex(rel.GroundAtom{Rel: sym.Name, Args: args}); i != -1 || s {
				t.Fatalf("FlipIndex(%s%v) = (%d, %v) outside the relation's A^arity", sym.Name, args, i, s)
			}
		}
	}
	if i, s := d.FlipIndex(rel.GroundAtom{Rel: "NoSuchRelation"}); i != -1 || s {
		t.Fatalf("FlipIndex of an unknown relation = (%d, %v)", i, s)
	}
}

// outside returns a tuple of the given arity whose last component is
// e, or nil for arity 0.
func outside(arity, e int) rel.Tuple {
	if arity == 0 {
		return nil
	}
	t := make(rel.Tuple, arity)
	t[arity-1] = e
	return t
}

// shapeDB draws a database over P/0, S/1, E/2 and T/3 with obs[r]
// observed tuples and unc[r] uncertain atoms in relation r (half of
// them drawn from its observed tuples, the rest anywhere, so many are
// absent from the observed structure), and sure atoms at mu = 1.
func shapeDB(rng *rand.Rand, n int, obs, unc map[string]int, sure int) *DB {
	voc := rel.MustVocabulary(rel.RelSym{Name: "P", Arity: 0}, rel.RelSym{Name: "S", Arity: 1},
		rel.RelSym{Name: "E", Arity: 2}, rel.RelSym{Name: "T", Arity: 3})
	s := rel.MustStructure(n, voc)
	draw := func(arity int) rel.Tuple {
		t := make(rel.Tuple, arity)
		for i := range t {
			t[i] = rng.Intn(n)
		}
		return t
	}
	for _, sym := range voc.Rels {
		for i := 0; i < obs[sym.Name]; i++ {
			s.MustAdd(sym.Name, draw(sym.Arity)...)
		}
	}
	d := New(s)
	for _, sym := range voc.Rels {
		held := s.Rel(sym.Name).Tuples()
		for i := 0; i < unc[sym.Name]; i++ {
			t := draw(sym.Arity)
			if i%2 == 0 && len(held) > 0 {
				t = held[rng.Intn(len(held))]
			}
			d.MustSetError(rel.GroundAtom{Rel: sym.Name, Args: t}, big.NewRat(int64(1+rng.Intn(9)), 10))
		}
	}
	for i := 0; i < sure; i++ {
		sym := voc.Rels[rng.Intn(len(voc.Rels))]
		d.MustSetError(rel.GroundAtom{Rel: sym.Name, Args: draw(sym.Arity)}, big.NewRat(1, 1))
	}
	return d
}

// TestFlipIndexMatchesCanonicalOrder checks FlipIndex against a linear
// search over seeded databases of arity 0–3 whose flip indexes are
// dense, sparse, both in one database, or hold mu = 1 atoms; and again
// after SetError invalidates a snapshot.
func TestFlipIndexMatchesCanonicalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, c := range []struct {
		n        int
		obs, unc map[string]int
		sure     int
	}{
		{n: 4, obs: map[string]int{"S": 2, "E": 5, "T": 9}, unc: map[string]int{"P": 1, "S": 3, "E": 6, "T": 10}},
		{n: 4, obs: map[string]int{"P": 1, "E": 3}, unc: map[string]int{"E": 2}, sure: 4},
		{n: 24, obs: map[string]int{"S": 5, "E": 4, "T": 10}, unc: map[string]int{"S": 4, "E": 3, "T": 5}, sure: 2},
		{n: 24, obs: map[string]int{"S": 12, "E": 120, "T": 300}, unc: map[string]int{"E": 40, "T": 250}},
		{n: 24, obs: map[string]int{"E": 200}, unc: map[string]int{"E": 4, "T": 2}, sure: 3},
		{n: 9, unc: map[string]int{"T": 100}, sure: 6},
	} {
		d := shapeDB(rng, c.n, c.obs, c.unc, c.sure)
		checkFlipIndex(t, d)
		d.MustSetError(d.UncertainAtoms()[0], new(big.Rat))
		checkFlipIndex(t, d)
	}
}

// TestFlipIndexWithoutDenseLayout: a relation whose tuple space
// overflows an int (65536^4) has no rank, so its index is always the
// key search; lookups outside the universe answer certain, not panic.
func TestFlipIndexWithoutDenseLayout(t *testing.T) {
	s := rel.MustStructure(rel.MaxUniverse, rel.MustVocabulary(rel.RelSym{Name: "Q", Arity: 4}))
	d := New(s)
	atoms := []rel.GroundAtom{
		{Rel: "Q", Args: rel.Tuple{0, 0, 0, 1}},
		{Rel: "Q", Args: rel.Tuple{7, 65535, 3, 2}},
		{Rel: "Q", Args: rel.Tuple{65535, 65535, 65535, 65535}},
	}
	for _, a := range atoms {
		d.MustSetError(a, big.NewRat(1, 3))
	}
	d.MustSetError(rel.GroundAtom{Rel: "Q", Args: rel.Tuple{1, 2, 3, 4}}, big.NewRat(1, 1))
	if d.RelFlips("Q").Dense() {
		t.Fatal("index over 65536^4 tuples is dense")
	}
	for want, a := range atoms {
		if i, s := d.FlipIndex(a); i != want || s {
			t.Errorf("FlipIndex(%v) = (%d, %v), want (%d, false)", a, i, s, want)
		}
	}
	for _, c := range []struct {
		args rel.Tuple
		sure bool
	}{{rel.Tuple{1, 2, 3, 4}, true}, {rel.Tuple{1, 2, 3, 5}, false}, {rel.Tuple{0, 0, 0, 65536}, false}, {rel.Tuple{0, -1, 0, 0}, false}} {
		if i, s := d.FlipIndex(rel.GroundAtom{Rel: "Q", Args: c.args}); i != -1 || s != c.sure {
			t.Errorf("FlipIndex(Q%v) = (%d, %v), want (-1, %v)", c.args, i, s, c.sure)
		}
	}
}

// FuzzFlipIndex checks FlipIndex against the linear search of
// checkFlipIndex on every database that parses and whose ground atoms
// are few enough to search.
func FuzzFlipIndex(f *testing.F) {
	for _, s := range []string{
		sampleDB,
		"universe 3\nrel P/0\nrel S/1\nP err 1/2\nS 2 absent err 1\nS 0 err 1/3\n",
		"universe 30\nrel E/2\nE 0 1 err 1/2\nE 29 29 absent err 1/4\nE 3 4 err 1\nE 5 5\n",
		"universe 5\nrel T/3\nT 0 1 2 err 1/2\nT 4 4 4 absent err 1/2\nT 0 0 0 err 1\nT 1 1 1\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d, err := ParseDB(strings.NewReader(src))
		if err != nil {
			return
		}
		if c := d.A.GroundAtomCount(); c < 0 || c > 1<<12 {
			return
		}
		checkFlipIndex(t, d)
	})
}
