package ra

import (
	"testing"

	"qrel/internal/rel"
)

// OpenPaged stores db in a paged store file and opens it as a Source.
// The store package imports this one, so the external test package
// supplies it (paged_test.go).
var OpenPaged func(tb testing.TB, db *rel.Structure) Source

// poisonSource enforces the borrow contract loudly: each scan hands out
// a fresh copy of the inner tuple, and on its next Next or Close
// overwrites that copy with garbage outside every universe. An operator
// that kept a borrowed row then holds garbage — Tuple.Key panics on it,
// and no row or lineage built from it matches a real one — instead of a
// silently wrong but plausible tuple.
type poisonSource struct{ Source }

func (p poisonSource) Scan(name string) (TupleIter, error) {
	it, err := p.Source.Scan(name)
	if err != nil {
		return nil, err
	}
	return &poisonIter{in: it}, nil
}

type poisonIter struct {
	in   TupleIter
	last rel.Tuple
}

func (it *poisonIter) poison() {
	for i := range it.last {
		it.last[i] = -1
	}
	it.last = nil
}

func (it *poisonIter) Next() (rel.Tuple, bool, error) {
	it.poison()
	t, ok, err := it.in.Next()
	if ok {
		it.last = t.Clone()
		t = it.last
	}
	return t, ok, err
}

func (it *poisonIter) Close() error {
	it.poison()
	return it.in.Close()
}

type namedSource struct {
	name string
	src  Source
}

// testSources returns db as every Source the borrow contract is
// checked on: the plain memory source, then the memory source and a
// paged store each behind poisonSource.
func testSources(tb testing.TB, db *rel.Structure) []namedSource {
	tb.Helper()
	if OpenPaged == nil {
		tb.Fatal("no paged source: paged_test.go did not register OpenPaged")
	}
	return []namedSource{
		{"memory", StructureSource(db)},
		{"memory-poisoned", poisonSource{StructureSource(db)}},
		{"store-poisoned", poisonSource{OpenPaged(tb, db)}},
	}
}

// TestPoisonSourceCatchesAKeptRow: the wrapper must turn a kept row
// into garbage, or the borrow tests prove nothing.
func TestPoisonSourceCatchesAKeptRow(t *testing.T) {
	for _, s := range testSources(t, companyDB())[1:] {
		t.Run(s.name, func(t *testing.T) {
			it, err := s.src.Scan("Emp")
			if err != nil {
				t.Fatal(err)
			}
			first, ok, err := it.Next()
			if !ok || err != nil {
				t.Fatalf("first Next: ok=%v err=%v", ok, err)
			}
			kept := first
			if _, _, err := it.Next(); err != nil {
				t.Fatal(err)
			}
			if !kept.Equal(rel.Tuple{-1, -1}) {
				t.Errorf("a row kept past Next reads %v, want the poison (-1,-1)", kept)
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
