package ra

import (
	"fmt"
	"sort"
	"testing"

	"qrel/internal/logic"
	"qrel/internal/rel"
	"qrel/internal/testutil"
)

// drain pulls an iterator dry, returning copies of its borrowed tuples
// and lineages in stream order.
func drain(t *testing.T, it Iterator) ([]rel.Tuple, []Lineage) {
	t.Helper()
	var ts []rel.Tuple
	var ls []Lineage
	for {
		tp, lin, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return ts, ls
		}
		ts = append(ts, tp.Clone())
		ls = append(ls, lin.Clone())
	}
}

func lineageKey(l Lineage) string {
	parts := make([]string, len(l))
	for i, a := range l {
		parts[i] = fmt.Sprintf("%s%v", a.Rel, a.Args)
	}
	sort.Strings(parts)
	return fmt.Sprint(parts)
}

// forEachSource runs fn on db as every Source of testSources, each in
// its own subtest.
func forEachSource(t *testing.T, db *rel.Structure, fn func(t *testing.T, src Source)) {
	t.Helper()
	for _, s := range testSources(t, db) {
		t.Run(s.name, func(t *testing.T) { fn(t, s.src) })
	}
}

func TestScanLineageIsOwnAtom(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	forEachSource(t, companyDB(), func(t *testing.T, src Source) {
		it, _, err := Build(src, emp())
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		ts, ls := drain(t, it)
		if len(ts) != 3 {
			t.Fatalf("scan yielded %d tuples", len(ts))
		}
		for i, tp := range ts {
			want := Lineage{{Rel: "Emp", Args: tp}}
			if lineageKey(ls[i]) != lineageKey(want) {
				t.Errorf("tuple %v: lineage %v, want %v", tp, ls[i], want)
			}
		}
	})
}

func TestJoinLineageConcatenates(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	forEachSource(t, companyDB(), func(t *testing.T, src Source) {
		it, schema, err := Build(src, Join{L: emp(), R: mgr()})
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		if len(schema) != 3 {
			t.Fatalf("join schema %v", schema)
		}
		ts, ls := drain(t, it)
		found := false
		for i, tp := range ts {
			if tp.Equal(rel.Tuple{0, 4, 3}) {
				found = true
				want := Lineage{
					{Rel: "Emp", Args: rel.Tuple{0, 4}},
					{Rel: "Mgr", Args: rel.Tuple{4, 3}},
				}
				if lineageKey(ls[i]) != lineageKey(want) {
					t.Errorf("lineage %v, want %v", ls[i], want)
				}
			}
		}
		if !found {
			t.Fatal("join missing (0,4,3)")
		}
	})
}

func TestProjectLineageIsFirstWitness(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	// Project Emp onto d: 4 appears for employees 0 and 1; the witness
	// must be the first in scan (= sorted) order, deterministically.
	forEachSource(t, companyDB(), func(t *testing.T, src Source) {
		it, _, err := Build(src, Project{From: emp(), Attrs: []string{"d"}})
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		ts, ls := drain(t, it)
		if len(ts) != 2 {
			t.Fatalf("project yielded %v", ts)
		}
		for i, tp := range ts {
			if tp.Equal(rel.Tuple{4}) {
				want := Lineage{{Rel: "Emp", Args: rel.Tuple{0, 4}}} // (0,4) sorts before (1,4)
				if lineageKey(ls[i]) != lineageKey(want) {
					t.Errorf("witness for d=4: %v, want %v", ls[i], want)
				}
			}
		}
	})
}

func TestLineageFormula(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	atomA := rel.GroundAtom{Rel: "Emp", Args: rel.Tuple{0, 4}}
	atomB := rel.GroundAtom{Rel: "Mgr", Args: rel.Tuple{4, 3}}
	// Duplicates collapse and order is canonical.
	f1 := Lineage{atomB, atomA, atomB}.Formula()
	f2 := Lineage{atomA, atomB}.Formula()
	if f1.String() != f2.String() {
		t.Errorf("formula not canonical: %q vs %q", f1, f2)
	}
	and, ok := f1.(logic.And)
	if !ok || len(and) != 2 {
		t.Fatalf("expected a 2-way conjunction, got %q", f1)
	}
	// A single atom stays bare.
	if _, ok := (Lineage{atomA}).Formula().(logic.And); ok {
		t.Error("singleton lineage wrapped in a conjunction")
	}
	if (Lineage{}).Formula() == nil {
		t.Error("empty lineage must still produce a formula")
	}
}

func TestEvalOnMatchesEval(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	db := companyDB()
	queries := []Expr{
		emp(),
		Select{From: emp(), Attr: "d", Elem: 4},
		Select{From: emp(), Attr: "e", Other: "d", Elem: -1, Negate: true},
		Project{From: emp(), Attrs: []string{"d"}},
		Rename{From: emp(), Old: "e", New: "worker"},
		Join{L: emp(), R: mgr()},
		Join{L: Join{L: emp(), R: mgr()}, R: star()},
		Union{L: star(), R: Project{From: Select{From: emp(), Attr: "d", Elem: 5}, Attrs: []string{"e"}}},
		Diff{L: star(), R: Project{From: Select{From: emp(), Attr: "d", Elem: 5}, Attrs: []string{"e"}}},
	}
	forEachSource(t, db, func(t *testing.T, src Source) {
		for _, q := range queries {
			a, err := Eval(db, q)
			if err != nil {
				t.Fatalf("%v: %v", q, err)
			}
			b, err := evalOn(src, q)
			if err != nil {
				t.Fatalf("%v: %v", q, err)
			}
			if a.Len() != b.Len() {
				t.Errorf("%v: Eval %d rows, evalOn %d rows", q, a.Len(), b.Len())
			}
			for _, row := range a.Rows() {
				if !b.Contains(row) {
					t.Errorf("%v: row %v missing from evalOn result", q, row)
				}
			}
		}
	})
}

func TestOutputsAreSets(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	db := companyDB()
	queries := []Expr{
		Project{From: emp(), Attrs: []string{"d"}},
		Union{L: star(), R: star()},
		Join{L: emp(), R: mgr()},
	}
	forEachSource(t, db, func(t *testing.T, src Source) {
		for _, q := range queries {
			it, _, err := Build(src, q)
			if err != nil {
				t.Fatal(err)
			}
			ts, _ := drain(t, it)
			it.Close()
			seen := make(map[uint64]bool)
			for _, tp := range ts {
				k := tp.Key()
				if seen[k] {
					t.Errorf("%v: duplicate output tuple %v", q, tp)
				}
				seen[k] = true
			}
		}
	})
}

func TestCloseIsIdempotentAndEarly(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	db := companyDB()
	it, _, err := Build(StructureSource(db), Join{L: emp(), R: mgr()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := it.Next(); !ok || err != nil {
		t.Fatalf("first Next: ok=%v err=%v", ok, err)
	}
	// Close mid-stream, then again.
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := it.Next(); ok {
		t.Error("Next after Close yielded a tuple")
	}
}

func TestBuildSchemaErrors(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	db := companyDB()
	bad := []Expr{
		Base{Rel: "Nope", Attrs: []string{"x"}},
		Join{L: emp(), R: Base{Rel: "Nope", Attrs: []string{"x"}}},
		Union{L: emp(), R: star()},
	}
	for _, q := range bad {
		if _, _, err := Build(StructureSource(db), q); err == nil {
			t.Errorf("%v: Build accepted an invalid plan", q)
		}
	}
}
