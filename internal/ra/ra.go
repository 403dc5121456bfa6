// Package ra implements a relational algebra (select / project / rename
// / natural join / union / difference) over the relational substrate,
// with named attributes. Expressions evaluate directly on a structure
// and also compile to first-order formulas (one formula per output
// tuple shape), so every reliability engine of the core package applies
// to RA queries unchanged — SQL-style queries get the paper's
// reliability guarantees for free. Evaluation and compilation are
// cross-checked against each other in the tests.
package ra

import (
	"fmt"
	"sort"
	"strings"

	"qrel/internal/logic"
	"qrel/internal/rel"
)

// Expr is a relational algebra expression. Every expression has a
// schema: an ordered list of distinct attribute names.
type Expr interface {
	fmt.Stringer
	// Schema returns the output attribute names in order.
	Schema(db *rel.Structure) ([]string, error)
	isExpr()
}

// Base is a database relation with attribute names for its columns.
type Base struct {
	Rel   string
	Attrs []string
}

// Select filters by an equality condition between two attributes or an
// attribute and a constant element.
type Select struct {
	From Expr
	// Attr is the left-hand attribute.
	Attr string
	// Other is the right-hand attribute; used when Elem < 0.
	Other string
	// Elem is the right-hand constant element when ≥ 0.
	Elem int
	// Negate selects inequality instead.
	Negate bool
}

// Project keeps the listed attributes (deduplicating rows).
type Project struct {
	From  Expr
	Attrs []string
}

// Rename renames one attribute.
type Rename struct {
	From     Expr
	Old, New string
}

// Join is the natural join (on all shared attributes).
type Join struct {
	L, R Expr
}

// Union is set union; schemas must match exactly.
type Union struct {
	L, R Expr
}

// Diff is set difference; schemas must match exactly.
type Diff struct {
	L, R Expr
}

func (Base) isExpr()    {}
func (Select) isExpr()  {}
func (Project) isExpr() {}
func (Rename) isExpr()  {}
func (Join) isExpr()    {}
func (Union) isExpr()   {}
func (Diff) isExpr()    {}

// String renders the expression in a compact algebra syntax.
func (e Base) String() string { return e.Rel + "(" + strings.Join(e.Attrs, ",") + ")" }

func (e Select) String() string {
	op := "="
	if e.Negate {
		op = "!="
	}
	rhs := e.Other
	if e.Elem >= 0 {
		rhs = fmt.Sprint(e.Elem)
	}
	return fmt.Sprintf("select[%s%s%s](%s)", e.Attr, op, rhs, e.From)
}

func (e Project) String() string {
	return fmt.Sprintf("project[%s](%s)", strings.Join(e.Attrs, ","), e.From)
}

func (e Rename) String() string { return fmt.Sprintf("rename[%s->%s](%s)", e.Old, e.New, e.From) }
func (e Join) String() string   { return fmt.Sprintf("(%s join %s)", e.L, e.R) }
func (e Union) String() string  { return fmt.Sprintf("(%s union %s)", e.L, e.R) }
func (e Diff) String() string   { return fmt.Sprintf("(%s minus %s)", e.L, e.R) }

// Schema implements Expr.
func (e Base) Schema(db *rel.Structure) ([]string, error) {
	r := db.Rel(e.Rel)
	if r == nil {
		return nil, fmt.Errorf("ra: unknown relation %q", e.Rel)
	}
	if r.Arity != len(e.Attrs) {
		return nil, fmt.Errorf("ra: relation %s has arity %d, %d attributes given", e.Rel, r.Arity, len(e.Attrs))
	}
	if err := distinct(e.Attrs); err != nil {
		return nil, err
	}
	return append([]string(nil), e.Attrs...), nil
}

// Schema implements Expr.
func (e Select) Schema(db *rel.Structure) ([]string, error) {
	s, err := e.From.Schema(db)
	if err != nil {
		return nil, err
	}
	if !has(s, e.Attr) {
		return nil, fmt.Errorf("ra: select attribute %q not in schema %v", e.Attr, s)
	}
	if e.Elem < 0 {
		if !has(s, e.Other) {
			return nil, fmt.Errorf("ra: select attribute %q not in schema %v", e.Other, s)
		}
	} else if e.Elem >= db.N {
		return nil, fmt.Errorf("ra: select constant %d outside universe [0,%d)", e.Elem, db.N)
	}
	return s, nil
}

// Schema implements Expr.
func (e Project) Schema(db *rel.Structure) ([]string, error) {
	s, err := e.From.Schema(db)
	if err != nil {
		return nil, err
	}
	if err := distinct(e.Attrs); err != nil {
		return nil, err
	}
	if len(e.Attrs) == 0 {
		return nil, fmt.Errorf("ra: projection onto an empty attribute list")
	}
	for _, a := range e.Attrs {
		if !has(s, a) {
			return nil, fmt.Errorf("ra: projected attribute %q not in schema %v", a, s)
		}
	}
	return append([]string(nil), e.Attrs...), nil
}

// Schema implements Expr.
func (e Rename) Schema(db *rel.Structure) ([]string, error) {
	s, err := e.From.Schema(db)
	if err != nil {
		return nil, err
	}
	if !has(s, e.Old) {
		return nil, fmt.Errorf("ra: rename source %q not in schema %v", e.Old, s)
	}
	if has(s, e.New) {
		return nil, fmt.Errorf("ra: rename target %q already in schema %v", e.New, s)
	}
	out := make([]string, len(s))
	for i, a := range s {
		if a == e.Old {
			out[i] = e.New
		} else {
			out[i] = a
		}
	}
	return out, nil
}

// Schema implements Expr. The join schema is L's attributes followed by
// R's non-shared ones.
func (e Join) Schema(db *rel.Structure) ([]string, error) {
	ls, err := e.L.Schema(db)
	if err != nil {
		return nil, err
	}
	rs, err := e.R.Schema(db)
	if err != nil {
		return nil, err
	}
	out := append([]string(nil), ls...)
	for _, a := range rs {
		if !has(ls, a) {
			out = append(out, a)
		}
	}
	return out, nil
}

// Schema implements Expr.
func (e Union) Schema(db *rel.Structure) ([]string, error) { return sameSchema(db, e.L, e.R, "union") }

// Schema implements Expr.
func (e Diff) Schema(db *rel.Structure) ([]string, error) { return sameSchema(db, e.L, e.R, "minus") }

func sameSchema(db *rel.Structure, l, r Expr, op string) ([]string, error) {
	ls, err := l.Schema(db)
	if err != nil {
		return nil, err
	}
	rs, err := r.Schema(db)
	if err != nil {
		return nil, err
	}
	if len(ls) != len(rs) {
		return nil, fmt.Errorf("ra: %s of schemas %v and %v", op, ls, rs)
	}
	for i := range ls {
		if ls[i] != rs[i] {
			return nil, fmt.Errorf("ra: %s of schemas %v and %v", op, ls, rs)
		}
	}
	return ls, nil
}

func has(s []string, a string) bool {
	for _, x := range s {
		if x == a {
			return true
		}
	}
	return false
}

func distinct(attrs []string) error {
	seen := map[string]struct{}{}
	for _, a := range attrs {
		if a == "" {
			return fmt.Errorf("ra: empty attribute name")
		}
		if _, dup := seen[a]; dup {
			return fmt.Errorf("ra: duplicate attribute %q", a)
		}
		seen[a] = struct{}{}
	}
	return nil
}

// Result is an evaluated expression: a schema and a set of rows.
type Result struct {
	Schema []string
	rows   map[uint64]rel.Tuple
}

// Rows returns the rows as tuples in schema order, sorted.
func (r *Result) Rows() []rel.Tuple {
	keys := make([]uint64, 0, len(r.rows))
	for k := range r.rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]rel.Tuple, len(keys))
	for i, k := range keys {
		out[i] = r.rows[k]
	}
	return out
}

// Len returns the number of rows.
func (r *Result) Len() int { return len(r.rows) }

// Contains reports whether the tuple (in schema order) is in the
// result.
func (r *Result) Contains(t rel.Tuple) bool {
	_, ok := r.rows[t.Key()]
	return ok
}

func newResult(schema []string) *Result {
	return &Result{Schema: schema, rows: map[uint64]rel.Tuple{}}
}

func (r *Result) add(t rel.Tuple) { r.rows[t.Key()] = t.Clone() }

// Eval evaluates the expression on the structure. It is a thin
// materializing wrapper over the streaming iterators: the plan built
// by Build drains into a Result, so the in-memory path and the paged
// store run the identical operator code.
func Eval(db *rel.Structure, e Expr) (*Result, error) {
	return evalOn(StructureSource(db), e)
}

// evalOn evaluates the expression against any Source, materializing
// the streamed rows into a Result.
func evalOn(src Source, e Expr) (*Result, error) {
	it, schema, err := Build(src, e)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	out := newResult(schema)
	for {
		t, _, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out.add(t)
	}
}

func index(schema []string, a string) int {
	for i, x := range schema {
		if x == a {
			return i
		}
	}
	return -1
}

func sharedAttrs(l, r []string) []string {
	var out []string
	for _, a := range l {
		if has(r, a) {
			out = append(out, a)
		}
	}
	return out
}

// ToFormula compiles the expression into a first-order formula whose
// free variables are exactly the schema attributes (as logic variables
// of the same names): a tuple ā is in the RA result iff the formula
// holds under the environment mapping the schema to ā. Projection
// introduces existential quantification over the dropped attributes;
// difference introduces negation, so an RA query with Diff compiles to
// a non-conjunctive formula exactly as the theory predicts.
func ToFormula(db *rel.Structure, e Expr) (logic.Formula, []string, error) {
	schema, err := e.Schema(db)
	if err != nil {
		return nil, nil, err
	}
	f, err := toFormula(db, e)
	if err != nil {
		return nil, nil, err
	}
	return f, schema, nil
}

func toFormula(db *rel.Structure, e Expr) (logic.Formula, error) {
	switch x := e.(type) {
	case Base:
		args := make([]logic.Term, len(x.Attrs))
		for i, a := range x.Attrs {
			args[i] = logic.Var(a)
		}
		return logic.Atom{Rel: x.Rel, Args: args}, nil
	case Select:
		inner, err := toFormula(db, x.From)
		if err != nil {
			return nil, err
		}
		var rhs logic.Term
		if x.Elem >= 0 {
			rhs = logic.Elem(x.Elem)
		} else {
			rhs = logic.Var(x.Other)
		}
		var cond logic.Formula = logic.Eq{L: logic.Var(x.Attr), R: rhs}
		if x.Negate {
			cond = logic.Not{F: cond}
		}
		return logic.And{inner, cond}, nil
	case Project:
		innerSchema, err := x.From.Schema(db)
		if err != nil {
			return nil, err
		}
		inner, err := toFormula(db, x.From)
		if err != nil {
			return nil, err
		}
		var dropped []string
		for _, a := range innerSchema {
			if !has(x.Attrs, a) {
				dropped = append(dropped, a)
			}
		}
		if len(dropped) == 0 {
			return inner, nil
		}
		return logic.Exists{Vars: dropped, Body: inner}, nil
	case Rename:
		inner, err := toFormula(db, x.From)
		if err != nil {
			return nil, err
		}
		return logic.Substitute(inner, map[string]logic.Term{x.Old: logic.Var(x.New)}), nil
	case Join:
		l, err := toFormula(db, x.L)
		if err != nil {
			return nil, err
		}
		r, err := toFormula(db, x.R)
		if err != nil {
			return nil, err
		}
		return logic.And{l, r}, nil
	case Union:
		l, err := toFormula(db, x.L)
		if err != nil {
			return nil, err
		}
		r, err := toFormula(db, x.R)
		if err != nil {
			return nil, err
		}
		return logic.Or{l, r}, nil
	case Diff:
		l, err := toFormula(db, x.L)
		if err != nil {
			return nil, err
		}
		r, err := toFormula(db, x.R)
		if err != nil {
			return nil, err
		}
		return logic.And{l, logic.Not{F: r}}, nil
	default:
		return nil, fmt.Errorf("ra: unknown expression %T", e)
	}
}
