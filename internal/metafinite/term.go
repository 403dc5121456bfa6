package metafinite

import (
	"fmt"
	"math/big"
	"strings"

	"qrel/internal/rel"
)

// Env assigns universe elements to first-order variables.
type Env map[string]int

// Clone returns a copy of the environment.
func (e Env) Clone() Env {
	c := make(Env, len(e))
	for k, v := range e {
		c[k] = v
	}
	return c
}

// Term is a metafinite query term: it evaluates on a functional
// database, under an environment for its free first-order variables, to
// a rational number. Booleans are encoded as 0/1, following the paper's
// convention that the interpreted structure contains 0, 1 and the
// Boolean operations.
type Term interface {
	fmt.Stringer
	// Eval computes the term's value.
	Eval(db *FDB, env Env) (*big.Rat, error)
	// freeVars accumulates free first-order variables in first-seen
	// order.
	freeVars(bound map[string]int, emit func(string))
}

// Num is a rational constant.
type Num struct{ V *big.Rat }

// NumInt builds an integer constant.
func NumInt(v int64) Num { return Num{V: big.NewRat(v, 1)} }

// FApp is a function application f(t1, ..., tk); the arguments are
// first-order terms (variables or elements), never numbers — variables
// range over the finite universe only.
type FApp struct {
	Fn   string
	Args []FOTerm
}

// FOTerm is a first-order term: a variable name or a concrete element.
type FOTerm struct {
	Var  string // non-empty for a variable
	Elem int    // used when Var is empty
}

// V makes a variable FOTerm.
func V(name string) FOTerm { return FOTerm{Var: name} }

// elem makes an element FOTerm.
func elem(e int) FOTerm { return FOTerm{Elem: e} }

// String renders the first-order term.
func (t FOTerm) String() string {
	if t.Var != "" {
		return t.Var
	}
	return fmt.Sprintf("#%d", t.Elem)
}

// Binary arithmetic over terms.
type (
	// Add is L + R.
	Add struct{ L, R Term }
	// Sub is L − R.
	Sub struct{ L, R Term }
	// Mul is L · R.
	Mul struct{ L, R Term }
	// Min2 is min(L, R).
	Min2 struct{ L, R Term }
	// Max2 is max(L, R).
	Max2 struct{ L, R Term }
	// CharEq is the characteristic function [L = R] ∈ {0, 1}.
	CharEq struct{ L, R Term }
	// CharLess is the characteristic function [L < R] ∈ {0, 1}.
	CharLess struct{ L, R Term }
)

// Aggregate terms: multiset operations binding a first-order variable
// (the paper's generalization of quantifiers).
type (
	// SumAgg is Σ_v Body.
	SumAgg struct {
		Var  string
		Body Term
	}
	// ProdAgg is Π_v Body.
	ProdAgg struct {
		Var  string
		Body Term
	}
	// MinAgg is min_v Body.
	MinAgg struct {
		Var  string
		Body Term
	}
	// MaxAgg is max_v Body.
	MaxAgg struct {
		Var  string
		Body Term
	}
	// AvgAgg is (Σ_v Body) / n — the SQL AVG.
	AvgAgg struct {
		Var  string
		Body Term
	}
	// CountAgg is Σ_v [Body ≠ 0] — the SQL COUNT(·) over a 0/1
	// condition.
	CountAgg struct {
		Var  string
		Body Term
	}
)

// Eval implements Term.
func (t Num) Eval(*FDB, Env) (*big.Rat, error) {
	if t.V == nil {
		return nil, fmt.Errorf("metafinite: nil numeric constant")
	}
	return new(big.Rat).Set(t.V), nil
}

// Eval implements Term.
func (t FApp) Eval(db *FDB, env Env) (*big.Rat, error) {
	f, ok := db.Funcs[t.Fn]
	if !ok {
		return nil, fmt.Errorf("metafinite: unknown function %q", t.Fn)
	}
	if len(t.Args) != f.Arity {
		return nil, fmt.Errorf("metafinite: %s expects %d args, got %d", t.Fn, f.Arity, len(t.Args))
	}
	tup := make(rel.Tuple, len(t.Args))
	for i, a := range t.Args {
		e, err := a.resolve(db, env)
		if err != nil {
			return nil, err
		}
		tup[i] = e
	}
	return f.Get(tup), nil
}

func (t FOTerm) resolve(db *FDB, env Env) (int, error) {
	if t.Var != "" {
		e, ok := env[t.Var]
		if !ok {
			return 0, fmt.Errorf("metafinite: unbound variable %q", t.Var)
		}
		return e, nil
	}
	if t.Elem < 0 || t.Elem >= db.N {
		return 0, fmt.Errorf("metafinite: element %d outside universe [0,%d)", t.Elem, db.N)
	}
	return t.Elem, nil
}

func evalBin(db *FDB, env Env, l, r Term, op func(a, b *big.Rat) *big.Rat) (*big.Rat, error) {
	a, err := l.Eval(db, env)
	if err != nil {
		return nil, err
	}
	b, err := r.Eval(db, env)
	if err != nil {
		return nil, err
	}
	return op(a, b), nil
}

// Eval implements Term.
func (t Add) Eval(db *FDB, env Env) (*big.Rat, error) {
	return evalBin(db, env, t.L, t.R, func(a, b *big.Rat) *big.Rat { return a.Add(a, b) })
}

// Eval implements Term.
func (t Sub) Eval(db *FDB, env Env) (*big.Rat, error) {
	return evalBin(db, env, t.L, t.R, func(a, b *big.Rat) *big.Rat { return a.Sub(a, b) })
}

// Eval implements Term.
func (t Mul) Eval(db *FDB, env Env) (*big.Rat, error) {
	return evalBin(db, env, t.L, t.R, func(a, b *big.Rat) *big.Rat { return a.Mul(a, b) })
}

// Eval implements Term.
func (t Min2) Eval(db *FDB, env Env) (*big.Rat, error) {
	return evalBin(db, env, t.L, t.R, func(a, b *big.Rat) *big.Rat {
		if a.Cmp(b) <= 0 {
			return a
		}
		return b
	})
}

// Eval implements Term.
func (t Max2) Eval(db *FDB, env Env) (*big.Rat, error) {
	return evalBin(db, env, t.L, t.R, func(a, b *big.Rat) *big.Rat {
		if a.Cmp(b) >= 0 {
			return a
		}
		return b
	})
}

// Eval implements Term.
func (t CharEq) Eval(db *FDB, env Env) (*big.Rat, error) {
	return evalBin(db, env, t.L, t.R, func(a, b *big.Rat) *big.Rat {
		if a.Cmp(b) == 0 {
			return big.NewRat(1, 1)
		}
		return new(big.Rat)
	})
}

// Eval implements Term.
func (t CharLess) Eval(db *FDB, env Env) (*big.Rat, error) {
	return evalBin(db, env, t.L, t.R, func(a, b *big.Rat) *big.Rat {
		if a.Cmp(b) < 0 {
			return big.NewRat(1, 1)
		}
		return new(big.Rat)
	})
}

// evalAgg folds Body over all bindings of v.
func evalAgg(db *FDB, env Env, v string, body Term, init *big.Rat, fold func(acc, x *big.Rat) *big.Rat) (*big.Rat, error) {
	env = env.Clone()
	var acc *big.Rat
	if init != nil {
		acc = new(big.Rat).Set(init)
	}
	for e := 0; e < db.N; e++ {
		env[v] = e
		x, err := body.Eval(db, env)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			// nil init: the first element seeds the fold (min/max).
			acc = x
			continue
		}
		acc = fold(acc, x)
	}
	return acc, nil
}

// Eval implements Term.
func (t SumAgg) Eval(db *FDB, env Env) (*big.Rat, error) {
	return evalAgg(db, env, t.Var, t.Body, new(big.Rat), func(acc, x *big.Rat) *big.Rat { return acc.Add(acc, x) })
}

// Eval implements Term.
func (t ProdAgg) Eval(db *FDB, env Env) (*big.Rat, error) {
	return evalAgg(db, env, t.Var, t.Body, big.NewRat(1, 1), func(acc, x *big.Rat) *big.Rat { return acc.Mul(acc, x) })
}

// Eval implements Term. Min over an empty universe is an error.
func (t MinAgg) Eval(db *FDB, env Env) (*big.Rat, error) {
	if db.N == 0 {
		return nil, fmt.Errorf("metafinite: min over empty universe")
	}
	return evalAgg(db, env, t.Var, t.Body, nil, func(acc, x *big.Rat) *big.Rat {
		if x.Cmp(acc) < 0 {
			return x
		}
		return acc
	})
}

// Eval implements Term. Max over an empty universe is an error.
func (t MaxAgg) Eval(db *FDB, env Env) (*big.Rat, error) {
	if db.N == 0 {
		return nil, fmt.Errorf("metafinite: max over empty universe")
	}
	return evalAgg(db, env, t.Var, t.Body, nil, func(acc, x *big.Rat) *big.Rat {
		if x.Cmp(acc) > 0 {
			return x
		}
		return acc
	})
}

// Eval implements Term. Avg over an empty universe is an error.
func (t AvgAgg) Eval(db *FDB, env Env) (*big.Rat, error) {
	if db.N == 0 {
		return nil, fmt.Errorf("metafinite: avg over empty universe")
	}
	sum, err := (SumAgg{Var: t.Var, Body: t.Body}).Eval(db, env)
	if err != nil {
		return nil, err
	}
	return sum.Quo(sum, big.NewRat(int64(db.N), 1)), nil
}

// Eval implements Term.
func (t CountAgg) Eval(db *FDB, env Env) (*big.Rat, error) {
	return evalAgg(db, env, t.Var, t.Body, new(big.Rat), func(acc, x *big.Rat) *big.Rat {
		if x.Sign() != 0 {
			return acc.Add(acc, big.NewRat(1, 1))
		}
		return acc
	})
}

// String renderings in a Σ_v(...) style.
func (t Num) String() string      { return t.V.RatString() }
func (t FApp) String() string     { return t.Fn + "(" + joinFO(t.Args) + ")" }
func (t Add) String() string      { return "(" + t.L.String() + " + " + t.R.String() + ")" }
func (t Sub) String() string      { return "(" + t.L.String() + " - " + t.R.String() + ")" }
func (t Mul) String() string      { return "(" + t.L.String() + " * " + t.R.String() + ")" }
func (t Min2) String() string     { return "min(" + t.L.String() + ", " + t.R.String() + ")" }
func (t Max2) String() string     { return "max(" + t.L.String() + ", " + t.R.String() + ")" }
func (t CharEq) String() string   { return "[" + t.L.String() + " = " + t.R.String() + "]" }
func (t CharLess) String() string { return "[" + t.L.String() + " < " + t.R.String() + "]" }
func (t SumAgg) String() string   { return "sum_" + t.Var + "(" + t.Body.String() + ")" }
func (t ProdAgg) String() string  { return "prod_" + t.Var + "(" + t.Body.String() + ")" }
func (t MinAgg) String() string   { return "min_" + t.Var + "(" + t.Body.String() + ")" }
func (t MaxAgg) String() string   { return "max_" + t.Var + "(" + t.Body.String() + ")" }
func (t AvgAgg) String() string   { return "avg_" + t.Var + "(" + t.Body.String() + ")" }
func (t CountAgg) String() string { return "count_" + t.Var + "(" + t.Body.String() + ")" }

func joinFO(args []FOTerm) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.String()
	}
	return strings.Join(parts, ",")
}

// freeVars implementations.
func (t Num) freeVars(map[string]int, func(string)) {}

func (t FApp) freeVars(bound map[string]int, emit func(string)) {
	for _, a := range t.Args {
		if a.Var != "" && bound[a.Var] == 0 {
			emit(a.Var)
		}
	}
}

func binFree(l, r Term, bound map[string]int, emit func(string)) {
	l.freeVars(bound, emit)
	r.freeVars(bound, emit)
}

func (t Add) freeVars(b map[string]int, e func(string))      { binFree(t.L, t.R, b, e) }
func (t Sub) freeVars(b map[string]int, e func(string))      { binFree(t.L, t.R, b, e) }
func (t Mul) freeVars(b map[string]int, e func(string))      { binFree(t.L, t.R, b, e) }
func (t Min2) freeVars(b map[string]int, e func(string))     { binFree(t.L, t.R, b, e) }
func (t Max2) freeVars(b map[string]int, e func(string))     { binFree(t.L, t.R, b, e) }
func (t CharEq) freeVars(b map[string]int, e func(string))   { binFree(t.L, t.R, b, e) }
func (t CharLess) freeVars(b map[string]int, e func(string)) { binFree(t.L, t.R, b, e) }

func aggFree(v string, body Term, bound map[string]int, emit func(string)) {
	bound[v]++
	body.freeVars(bound, emit)
	bound[v]--
}

func (t SumAgg) freeVars(b map[string]int, e func(string))   { aggFree(t.Var, t.Body, b, e) }
func (t ProdAgg) freeVars(b map[string]int, e func(string))  { aggFree(t.Var, t.Body, b, e) }
func (t MinAgg) freeVars(b map[string]int, e func(string))   { aggFree(t.Var, t.Body, b, e) }
func (t MaxAgg) freeVars(b map[string]int, e func(string))   { aggFree(t.Var, t.Body, b, e) }
func (t AvgAgg) freeVars(b map[string]int, e func(string))   { aggFree(t.Var, t.Body, b, e) }
func (t CountAgg) freeVars(b map[string]int, e func(string)) { aggFree(t.Var, t.Body, b, e) }

// FreeVars returns the free first-order variables of the term in
// first-seen order.
func FreeVars(t Term) []string {
	var out []string
	seen := map[string]struct{}{}
	t.freeVars(map[string]int{}, func(v string) {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	})
	return out
}

// IsQuantifierFree reports whether the term contains no aggregate
// (multiset) operations — the fragment of Theorem 6.2 (i).
func IsQuantifierFree(t Term) bool {
	switch u := t.(type) {
	case Num, FApp:
		return true
	case Add:
		return IsQuantifierFree(u.L) && IsQuantifierFree(u.R)
	case Sub:
		return IsQuantifierFree(u.L) && IsQuantifierFree(u.R)
	case Mul:
		return IsQuantifierFree(u.L) && IsQuantifierFree(u.R)
	case Min2:
		return IsQuantifierFree(u.L) && IsQuantifierFree(u.R)
	case Max2:
		return IsQuantifierFree(u.L) && IsQuantifierFree(u.R)
	case CharEq:
		return IsQuantifierFree(u.L) && IsQuantifierFree(u.R)
	case CharLess:
		return IsQuantifierFree(u.L) && IsQuantifierFree(u.R)
	default:
		return false
	}
}

// sitesOf collects the ground function applications the term touches when
// evaluated under env — for a quantifier-free term, a constant number
// independent of the database size (the analogue of the atom set in
// Proposition 3.1).
func sitesOf(t Term, db *FDB, env Env) ([]Site, error) {
	seen := map[rel.AtomKey]struct{}{}
	var out []Site
	var walk func(Term, Env) error
	walk = func(u Term, env Env) error {
		switch v := u.(type) {
		case Num:
			return nil
		case FApp:
			f, ok := db.Funcs[v.Fn]
			if !ok {
				return fmt.Errorf("metafinite: unknown function %q", v.Fn)
			}
			if len(v.Args) != f.Arity {
				return fmt.Errorf("metafinite: %s expects %d args, got %d", v.Fn, f.Arity, len(v.Args))
			}
			tup := make(rel.Tuple, len(v.Args))
			for i, a := range v.Args {
				e, err := a.resolve(db, env)
				if err != nil {
					return err
				}
				tup[i] = e
			}
			s := Site{Fn: v.Fn, Args: tup}
			if _, ok := seen[s.Key()]; !ok {
				seen[s.Key()] = struct{}{}
				out = append(out, s)
			}
			return nil
		case Add:
			return walk2(walk, v.L, v.R, env)
		case Sub:
			return walk2(walk, v.L, v.R, env)
		case Mul:
			return walk2(walk, v.L, v.R, env)
		case Min2:
			return walk2(walk, v.L, v.R, env)
		case Max2:
			return walk2(walk, v.L, v.R, env)
		case CharEq:
			return walk2(walk, v.L, v.R, env)
		case CharLess:
			return walk2(walk, v.L, v.R, env)
		case SumAgg:
			return walkAgg(walk, db, v.Var, v.Body, env)
		case ProdAgg:
			return walkAgg(walk, db, v.Var, v.Body, env)
		case MinAgg:
			return walkAgg(walk, db, v.Var, v.Body, env)
		case MaxAgg:
			return walkAgg(walk, db, v.Var, v.Body, env)
		case AvgAgg:
			return walkAgg(walk, db, v.Var, v.Body, env)
		case CountAgg:
			return walkAgg(walk, db, v.Var, v.Body, env)
		default:
			return fmt.Errorf("metafinite: unknown term %T", u)
		}
	}
	if err := walk(t, env); err != nil {
		return nil, err
	}
	return out, nil
}

func walk2(walk func(Term, Env) error, l, r Term, env Env) error {
	if err := walk(l, env); err != nil {
		return err
	}
	return walk(r, env)
}

func walkAgg(walk func(Term, Env) error, db *FDB, v string, body Term, env Env) error {
	env = env.Clone()
	for e := 0; e < db.N; e++ {
		env[v] = e
		if err := walk(body, env); err != nil {
			return err
		}
	}
	return nil
}
