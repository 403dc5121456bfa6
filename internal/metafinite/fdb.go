// Package metafinite implements Section 6 of the paper: unreliable
// functional databases over an infinite interpreted domain (here: the
// rational numbers with arithmetic, min/max and the multiset operations
// Σ, Π, min, max, count, avg), in the style of metafinite model theory
// (Grädel & Gurevich). Queries are terms whose first-order variables
// range over the finite universe only; aggregates play the role of
// quantifiers.
//
// The package provides the functional-database model (Definition 6.1),
// a term language with evaluation, exact reliability engines for
// quantifier-free (Theorem 6.2 (i)) and first-order (Theorem 6.2 (ii))
// queries, a budgeted second-order aggregate (Theorem 6.2 (iii)), and a
// Monte Carlo estimator mirroring Theorem 5.12.
package metafinite

import (
	"fmt"
	"math/big"

	"qrel/internal/rel"
)

// FuncSym is a function symbol: a name with an arity; the function maps
// A^arity into the rationals.
type FuncSym struct {
	Name  string
	Arity int
}

// String renders the symbol as "f/2".
func (s FuncSym) String() string { return fmt.Sprintf("%s/%d", s.Name, s.Arity) }

// FTable is one function f : A^k → ℚ, stored sparsely with a default
// value for unlisted tuples.
type FTable struct {
	Arity   int
	Default *big.Rat
	vals    map[uint64]*big.Rat
}

// newFTable returns a table of the given arity with default value 0.
func newFTable(arity int) *FTable {
	return &FTable{Arity: arity, Default: new(big.Rat), vals: map[uint64]*big.Rat{}}
}

// Get returns f(t).
func (f *FTable) Get(t rel.Tuple) *big.Rat {
	if v, ok := f.vals[t.Key()]; ok {
		return new(big.Rat).Set(v)
	}
	return new(big.Rat).Set(f.Default)
}

// Set assigns f(t) = v.
func (f *FTable) Set(t rel.Tuple, v *big.Rat) {
	if len(t) != f.Arity {
		panic(fmt.Sprintf("metafinite: tuple %v for arity-%d function", t, f.Arity))
	}
	f.vals[t.Key()] = new(big.Rat).Set(v)
}

// Clone returns a deep copy.
func (f *FTable) Clone() *FTable {
	c := &FTable{Arity: f.Arity, Default: new(big.Rat).Set(f.Default), vals: make(map[uint64]*big.Rat, len(f.vals))}
	for k, v := range f.vals {
		c.vals[k] = new(big.Rat).Set(v)
	}
	return c
}

// FDB is a functional database (A, F): a finite universe {0..N-1} and
// finitely many functions into ℚ.
type FDB struct {
	N     int
	Funcs map[string]*FTable
}

// NewFDB returns a functional database with the given universe size and
// function symbols (all initially constant 0).
func NewFDB(n int, syms ...FuncSym) (*FDB, error) {
	if n < 0 || n > rel.MaxUniverse {
		return nil, fmt.Errorf("metafinite: universe size %d out of range", n)
	}
	db := &FDB{N: n, Funcs: map[string]*FTable{}}
	for _, s := range syms {
		if s.Arity < 0 || s.Arity > rel.MaxArity {
			return nil, fmt.Errorf("metafinite: function %s arity out of range", s)
		}
		if _, dup := db.Funcs[s.Name]; dup {
			return nil, fmt.Errorf("metafinite: duplicate function %q", s.Name)
		}
		db.Funcs[s.Name] = newFTable(s.Arity)
	}
	return db, nil
}

// mustFDB is NewFDB that panics on error.
func mustFDB(n int, syms ...FuncSym) *FDB {
	db, err := NewFDB(n, syms...)
	if err != nil {
		panic(err)
	}
	return db
}

// SetF assigns fn(args...) = v for integer-valued v (convenience).
func (db *FDB) SetF(fn string, v int64, args ...int) error {
	return db.SetFRat(fn, big.NewRat(v, 1), args...)
}

// SetFRat assigns fn(args...) = v.
func (db *FDB) SetFRat(fn string, v *big.Rat, args ...int) error {
	f, ok := db.Funcs[fn]
	if !ok {
		return fmt.Errorf("metafinite: unknown function %q", fn)
	}
	if len(args) != f.Arity {
		return fmt.Errorf("metafinite: %s expects %d args, got %d", fn, f.Arity, len(args))
	}
	for _, a := range args {
		if a < 0 || a >= db.N {
			return fmt.Errorf("metafinite: element %d outside universe [0,%d)", a, db.N)
		}
	}
	f.Set(rel.Tuple(args), v)
	return nil
}

// Clone returns a deep copy of the database.
func (db *FDB) Clone() *FDB {
	c := &FDB{N: db.N, Funcs: make(map[string]*FTable, len(db.Funcs))}
	for name, f := range db.Funcs {
		c.Funcs[name] = f.Clone()
	}
	return c
}

// Site identifies a ground function application f(ā) — the unit of
// unreliability in the functional model.
type Site struct {
	Fn   string
	Args rel.Tuple
}

// String renders the site as "f(1,2)".
func (s Site) String() string { return s.atom().String() }

func (s Site) atom() rel.GroundAtom { return rel.GroundAtom{Rel: s.Fn, Args: s.Args} }

// Key returns a comparable map key for the site.
func (s Site) Key() rel.AtomKey { return s.atom().Key() }
