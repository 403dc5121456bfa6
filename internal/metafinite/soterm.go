package metafinite

import (
	"fmt"
	"math/big"

	"qrel/internal/rel"
)

// This file implements the second-order multiset operations of Section
// 6 (Theorem 6.2 (iii)): terms of the form Σ_S F(S, x̄) where S ranges
// over all relations of a fixed arity on the universe. The bound set
// variable is exposed to the body as a 0/1-valued function of the same
// name (its characteristic function), so the body is an ordinary term.
// Evaluation enumerates the 2^(n^arity) relations and is guarded by
// MaxSOCells — second-order metafinite queries reach the counting
// hierarchy (FP^CH), so this cannot be improved in general.

// MaxSOCells bounds the tuple-space size n^arity a second-order
// aggregate may quantify over.
const MaxSOCells = 20

// Second-order aggregates; Set is the bound set-variable name, visible
// in Body as a 0/1 function of arity Arity.
type (
	// SOSum is Σ_S Body.
	SOSum struct {
		Set   string
		Arity int
		Body  Term
	}
	// SOMax is max_S Body.
	SOMax struct {
		Set   string
		Arity int
		Body  Term
	}
	// SOMin is min_S Body.
	SOMin struct {
		Set   string
		Arity int
		Body  Term
	}
)

// InSet returns the 0/1 membership term [ā ∈ S] for use inside a
// second-order aggregate body: simply the characteristic function
// application S(ā).
func InSet(set string, args ...FOTerm) Term { return FApp{Fn: set, Args: args} }

func (t SOSum) String() string {
	return fmt.Sprintf("sumset_%s/%d(%s)", t.Set, t.Arity, t.Body)
}

func (t SOMax) String() string {
	return fmt.Sprintf("maxset_%s/%d(%s)", t.Set, t.Arity, t.Body)
}

func (t SOMin) String() string {
	return fmt.Sprintf("minset_%s/%d(%s)", t.Set, t.Arity, t.Body)
}

func (t SOSum) freeVars(b map[string]int, e func(string)) { t.Body.freeVars(b, e) }
func (t SOMax) freeVars(b map[string]int, e func(string)) { t.Body.freeVars(b, e) }
func (t SOMin) freeVars(b map[string]int, e func(string)) { t.Body.freeVars(b, e) }

// evalSO enumerates all relations of the given arity, evaluating the
// body with the set's characteristic function installed, and folds the
// values. init nil means "seed with the first value" (min/max).
func evalSO(db *FDB, env Env, set string, arity int, body Term, init *big.Rat, fold func(acc, x *big.Rat) *big.Rat) (*big.Rat, error) {
	if arity < 0 || arity > rel.MaxArity {
		return nil, fmt.Errorf("metafinite: second-order arity %d out of range", arity)
	}
	cells := rel.TupleCount(db.N, arity)
	if cells < 0 || cells > MaxSOCells {
		return nil, fmt.Errorf("metafinite: second-order aggregate over %s/%d: %d cells exceed budget %d",
			set, arity, cells, MaxSOCells)
	}
	if _, clash := db.Funcs[set]; clash {
		return nil, fmt.Errorf("metafinite: set variable %q shadows a database function", set)
	}
	tuples := make([]rel.Tuple, 0, cells)
	rel.ForEachTuple(db.N, arity, func(tp rel.Tuple) bool {
		tuples = append(tuples, tp.Clone())
		return true
	})
	scratch := db.Clone()
	char := newFTable(arity)
	scratch.Funcs[set] = char
	one := big.NewRat(1, 1)
	zero := new(big.Rat)
	var acc *big.Rat
	if init != nil {
		acc = new(big.Rat).Set(init)
	}
	for mask := uint64(0); mask < uint64(1)<<uint(cells); mask++ {
		for i, tp := range tuples {
			if mask&(1<<uint(i)) != 0 {
				char.Set(tp, one)
			} else {
				char.Set(tp, zero)
			}
		}
		x, err := body.Eval(scratch, env)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = x
			continue
		}
		acc = fold(acc, x)
	}
	return acc, nil
}

// Eval implements Term.
func (t SOSum) Eval(db *FDB, env Env) (*big.Rat, error) {
	return evalSO(db, env, t.Set, t.Arity, t.Body, new(big.Rat),
		func(acc, x *big.Rat) *big.Rat { return acc.Add(acc, x) })
}

// Eval implements Term.
func (t SOMax) Eval(db *FDB, env Env) (*big.Rat, error) {
	return evalSO(db, env, t.Set, t.Arity, t.Body, nil,
		func(acc, x *big.Rat) *big.Rat {
			if x.Cmp(acc) > 0 {
				return x
			}
			return acc
		})
}

// Eval implements Term.
func (t SOMin) Eval(db *FDB, env Env) (*big.Rat, error) {
	return evalSO(db, env, t.Set, t.Arity, t.Body, nil,
		func(acc, x *big.Rat) *big.Rat {
			if x.Cmp(acc) < 0 {
				return x
			}
			return acc
		})
}
