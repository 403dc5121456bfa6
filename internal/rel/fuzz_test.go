package rel

import (
	"testing"
)

// FuzzTupleKeyRoundTrip checks the packed tuple encoding: any key
// unpacked at a legal arity repacks to the same key (restricted to the
// bits the arity can hold), and unpacking never panics.
func FuzzTupleKeyRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint8(0))
	f.Add(uint64(0x0001000200030004), uint8(4))
	f.Add(uint64(0xffff), uint8(1))
	f.Add(uint64(0xdeadbeef), uint8(2))
	f.Add(^uint64(0), uint8(4))
	f.Add(uint64(1)<<48, uint8(3))
	f.Fuzz(func(t *testing.T, k uint64, arity uint8) {
		a := int(arity) % (MaxArity + 1)
		tup := KeyToTuple(k, a)
		if len(tup) != a {
			t.Fatalf("KeyToTuple(%#x, %d) has arity %d", k, a, len(tup))
		}
		for _, e := range tup {
			if e < 0 || e >= MaxUniverse {
				t.Fatalf("KeyToTuple(%#x, %d) component %d outside [0,%d)", k, a, e, MaxUniverse)
			}
		}
		var mask uint64
		if a > 0 {
			mask = ^uint64(0) >> (64 - 16*a)
		}
		if got := tup.Key(); got != k&mask {
			t.Fatalf("round trip %#x -> %v -> %#x (want %#x)", k, tup, got, k&mask)
		}
	})
}

// FuzzGroundAtomKey checks that GroundAtom.Key and AtomKey.Atom are
// mutually inverse for every relation name and legal tuple.
func FuzzGroundAtomKey(f *testing.F) {
	f.Add("E", uint64(0x00010002), uint8(2))
	f.Add("Salary", uint64(7), uint8(1))
	f.Add("", uint64(0), uint8(0))
	f.Add("weird name\n", uint64(0xffffffffffffffff), uint8(4))
	f.Fuzz(func(t *testing.T, name string, k uint64, arity uint8) {
		a := int(arity) % (MaxArity + 1)
		atom := GroundAtom{Rel: name, Args: KeyToTuple(k, a)}
		back := atom.Key().Atom()
		if !back.Equal(atom) {
			t.Fatalf("atom %v -> key %v -> %v", atom, atom.Key(), back)
		}
	})
}

// denseBoundary returns, for arity a ≥ 2, the largest universe whose
// tuple space fits the dense cap; one more element exceeds it.
func denseBoundary(a int) int {
	n := 1
	for TupleCount(n+1, a) <= maxDenseTuples {
		n++
	}
	return n
}

// FuzzRelationDenseMatchesSparse runs one random sequence of calls
// against a relation built by NewStructure (dense from the start over a
// small tuple space, turning dense as it fills, or on the fuzzer's
// demand while n^arity is at most maxDenseTuples) and a NewRelation
// hash set, and requires both to observe the same: membership of in-
// and out-of-universe probes, toggles, lengths, iteration, sorted
// tuples, clones that stay independent of their source, and equality
// across representations.
func FuzzRelationDenseMatchesSparse(f *testing.F) {
	f.Add(uint8(0), uint8(3), []byte{0, 2, 5, 3, 6, 7, 8, 9})
	f.Add(uint8(1), uint8(4), []byte{0, 3, 0, 2, 9, 1, 3, 8, 7, 2, 1, 6, 5})
	f.Add(uint8(2), uint8(3), []byte{0, 1, 0, 2, 3, 4, 0, 7, 1, 8, 4, 9})
	// (0,4) over n = 4 has the rank of (1,0): a probe past the universe
	// must not alias a stored tuple.
	f.Add(uint8(2), uint8(3), []byte{0, 1, 0, 0, 0, 4, 0, 0, 4, 0, 3, 0, 0, 4, 0})
	f.Add(uint8(2), uint8(200), []byte{10, 0, 1, 0, 255, 7, 2, 9, 9, 3, 4, 5, 8, 9})
	f.Add(uint8(2), uint8(201), []byte{10, 0, 1, 0, 255, 7, 2, 9, 9, 3, 4, 5, 8, 9})
	// Two tuples stored in the hash set, then the change to a bitset.
	f.Add(uint8(2), uint8(200), []byte{0, 1, 0, 0, 0, 0, 2, 0, 3, 0, 10, 5, 7, 9})
	f.Add(uint8(3), uint8(2), []byte{0, 1, 1, 1, 2, 0, 0, 0, 6, 7, 8})
	f.Add(uint8(4), uint8(200), []byte{10, 0, 1, 2, 3, 4, 2, 5, 6, 7, 8, 7, 9})
	f.Add(uint8(4), uint8(201), []byte{10, 0, 1, 2, 3, 4, 2, 5, 6, 7, 8, 7, 9})
	f.Fuzz(func(t *testing.T, arity, size uint8, ops []byte) {
		a := int(arity) % (MaxArity + 1)
		// Sizes 200 and 201 pick the universes at the dense cap and one
		// element past it; any other size is a small universe.
		n := int(size)%7 + 1
		if a >= 2 && size >= 200 && size <= 201 {
			n = denseBoundary(a) + int(size) - 200
		}
		voc := MustVocabulary(RelSym{Name: "R", Arity: a})
		d := MustStructure(n, voc).Rel("R")
		fits := TupleCount(n, a) <= maxDenseTuples
		if small := denseWords(TupleCount(n, a)) <= smallDenseWords; (d.Universe() == n) != small || (d.size >= 0) != fits {
			t.Fatalf("n=%d arity %d: Universe() = %d, size %d, dense cap %d", n, a, d.Universe(), d.size, maxDenseTuples)
		}
		s := NewRelation(a)
		// tuple reads the next a components from ops, each in [0, n+2):
		// n and n+1 probe outside the universe.
		tuple := func() (Tuple, bool) {
			tp, in := make(Tuple, a), true
			for i := range tp {
				var b0, b1 byte
				if len(ops) > 0 {
					b0, ops = ops[0], ops[1:]
				}
				if len(ops) > 0 {
					b1, ops = ops[0], ops[1:]
				}
				tp[i] = (int(b0) | int(b1)<<8) % (n + 2)
				in = in && tp[i] < n
			}
			return tp, in
		}
		keys := func(r *Relation) map[uint64]bool {
			m := map[uint64]bool{}
			r.ForEach(func(tp Tuple) bool {
				m[tp.Key()] = true
				return true
			})
			return m
		}
		for len(ops) > 0 {
			op := ops[0] % 11
			ops = ops[1:]
			switch op {
			case 0, 1, 2, 3, 4:
				tp, in := tuple()
				switch {
				case op == 0 && in:
					d.Add(tp)
					s.Add(tp)
				case op == 1:
					d.Remove(tp)
					s.Remove(tp)
				case op == 2 && in:
					if gd, gs := d.Toggle(tp), s.Toggle(tp); gd != gs {
						t.Fatalf("Toggle(%v) = %v dense, %v sparse", tp, gd, gs)
					}
				case op == 3:
					if gd, gs := d.Contains(tp), s.Contains(tp); gd != gs {
						t.Fatalf("Contains(%v) = %v dense, %v sparse", tp, gd, gs)
					}
				case op == 4:
					if gd, gs := d.ContainsKey(tp.Key()), s.ContainsKey(tp.Key()); gd != gs {
						t.Fatalf("ContainsKey(%v) = %v dense, %v sparse", tp, gd, gs)
					}
				}
			case 5:
				if d.Len() != s.Len() {
					t.Fatalf("Len = %d dense, %d sparse", d.Len(), s.Len())
				}
			case 6:
				kd, ks := keys(d), keys(s)
				if len(kd) != len(ks) || len(kd) != d.Len() {
					t.Fatalf("ForEach saw %d dense, %d sparse tuples; Len %d", len(kd), len(ks), d.Len())
				}
				for k := range kd {
					if !ks[k] {
						t.Fatalf("ForEach: %v only in the dense relation", KeyToTuple(k, a))
					}
				}
				calls := 0
				d.ForEach(func(Tuple) bool { calls++; return false })
				if calls != min(1, d.Len()) {
					t.Fatalf("ForEach ran %d calls past a false return", calls)
				}
			case 7:
				td, ts := d.Tuples(), s.Tuples()
				if len(td) != len(ts) {
					t.Fatalf("Tuples: %d dense, %d sparse", len(td), len(ts))
				}
				for i := range td {
					if !td[i].Equal(ts[i]) {
						t.Fatalf("Tuples[%d] = %v dense, %v sparse", i, td[i], ts[i])
					}
				}
			case 8:
				cd, cs := d.Clone(), s.Clone()
				if !cd.Equal(d) || !cs.Equal(s) || !cd.Equal(cs) {
					t.Fatal("clone differs from its source")
				}
				if cd.Universe() != d.Universe() {
					t.Fatalf("clone changed representation: Universe %d, source %d", cd.Universe(), d.Universe())
				}
				if tp, in := tuple(); in {
					before := d.Contains(tp)
					cd.Toggle(tp)
					cs.Toggle(tp)
					if d.Contains(tp) != before || s.Contains(tp) != before || d.Len() != s.Len() {
						t.Fatalf("toggling %v in a clone changed its source", tp)
					}
					if cd.Equal(d) || cs.Equal(s) || !cd.Equal(cs) || !cs.Equal(cd) {
						t.Fatalf("after toggling %v in the clones: Equal disagrees", tp)
					}
				}
			case 9:
				if !d.Equal(s) || !s.Equal(d) {
					t.Fatalf("Equal across representations is false: dense %v, sparse %v", d.Tuples(), s.Tuples())
				}
			case 10:
				if fits && d.Universe() < 0 {
					d.densify()
				}
				if (d.Universe() == n) != fits {
					t.Fatalf("n=%d arity %d: Universe() = %d after densify, dense cap %d", n, a, d.Universe(), maxDenseTuples)
				}
			}
		}
		if !d.Equal(s) || !s.Equal(d) {
			t.Fatalf("final relations differ: dense %v, sparse %v", d.Tuples(), s.Tuples())
		}
	})
}
