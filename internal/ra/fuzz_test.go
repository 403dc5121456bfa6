package ra

import (
	"testing"

	"qrel/internal/rel"
)

// decodeExpr consumes fuzz bytes to build an RA expression over the
// company schema. Every byte string decodes to some expression; many
// decode to deliberately invalid ones (unknown attributes, schema
// mismatches, out-of-universe constants) so the error paths are fuzzed
// alongside the happy path.
func decodeExpr(db *rel.Structure, data []byte, pos *int, depth int) Expr {
	next := func() int {
		if *pos >= len(data) {
			return 0
		}
		b := data[*pos]
		*pos++
		return int(b)
	}
	bases := []Expr{emp(), mgr(), star()}
	if depth == 0 {
		return bases[next()%3]
	}
	switch next() % 8 {
	case 0, 1:
		return bases[next()%3]
	case 2:
		from := decodeExpr(db, data, pos, depth-1)
		s := Select{From: from, Attr: pickAttr(db, from, next()), Elem: -1}
		if next()%2 == 0 {
			s.Elem = next() % 8 // may exceed the universe: an error path
		} else {
			s.Other = pickAttr(db, from, next())
		}
		s.Negate = next()%2 == 1
		return s
	case 3:
		from := decodeExpr(db, data, pos, depth-1)
		return Project{From: from, Attrs: []string{pickAttr(db, from, next())}}
	case 4:
		from := decodeExpr(db, data, pos, depth-1)
		return Rename{From: from, Old: pickAttr(db, from, next()), New: renameTarget(next())}
	case 5:
		return Join{L: decodeExpr(db, data, pos, depth-1), R: decodeExpr(db, data, pos, depth-1)}
	case 6:
		l := decodeExpr(db, data, pos, depth-1)
		return Union{L: l, R: l}
	default:
		l := decodeExpr(db, data, pos, depth-1)
		return Diff{L: l, R: l}
	}
}

// pickAttr chooses an attribute of e's schema, or a placeholder when
// the sub-expression has no valid schema (its Eval will error anyway).
func pickAttr(db *rel.Structure, e Expr, b int) string {
	s, err := e.Schema(db)
	if err != nil || len(s) == 0 {
		return "e"
	}
	return s[b%len(s)]
}

// renameTarget sometimes collides with existing attributes (an error
// path) and sometimes introduces a fresh name.
func renameTarget(b int) string {
	names := []string{"w", "e", "d", "b", "ww"}
	return names[b%len(names)]
}

// FuzzEvalMatchesFormula decodes random algebra expressions and checks
// the package's central contract: Eval never panics, and whenever it
// succeeds, the first-order compilation (ToFormula + logic.Eval over
// all candidate tuples) computes exactly the same relation. The same
// plan over every Source of testSources — poisoned scans included —
// must refuse or compute that relation too.
func FuzzEvalMatchesFormula(f *testing.F) {
	seeds := [][]byte{
		{0},
		{1, 2},
		{2, 0, 0, 1, 3},
		{3, 5, 0, 1, 2},
		{4, 0, 1, 0, 3},
		{5, 0, 1},
		{6, 2},
		{7, 3, 0, 1, 5, 2, 0},
		{2, 5, 0, 1, 0, 1, 9, 1},
		{5, 4, 0, 1, 0, 0, 4, 1, 0, 1, 2},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	db := companyDB()
	srcs := testSources(f, db)
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		e := decodeExpr(db, data, &pos, 3)
		res, err := Eval(db, e)
		if err != nil {
			// Invalid expressions must error, never panic, on every source.
			for _, s := range srcs {
				if _, err := evalOn(s.src, e); err == nil {
					t.Fatalf("%v: Eval refuses it, %s accepts it", e, s.name)
				}
			}
			return
		}
		want := evalViaFormula(t, db, e)
		check := func(name string, res *Result) {
			if res.Len() != len(want) {
				t.Fatalf("%v: %s has %d rows, formula compilation %d", e, name, res.Len(), len(want))
			}
			for _, row := range res.Rows() {
				if !want[row.Key()] {
					t.Fatalf("%v: %s row %v absent from the formula's relation", e, name, row)
				}
			}
		}
		check("Eval", res)
		for _, s := range srcs {
			got, err := evalOn(s.src, e)
			if err != nil {
				t.Fatalf("%v: %s: %v", e, s.name, err)
			}
			check(s.name, got)
		}
	})
}
