package vm

import (
	"fmt"

	"qrel/internal/faultinject"
	"qrel/internal/logic"
	"qrel/internal/prop"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// Compiler lowers first-order formulas over one unreliable database
// to bytecode programs over its uncertain-atom index space; engines
// that compile one program per answer tuple share one Compiler.
type Compiler struct {
	db *unreliable.DB
}

// NewCompiler builds a compiler for db. The database's mu assignment
// must not change between NewCompiler and the last Compile.
func NewCompiler(db *unreliable.DB) *Compiler { return &Compiler{db: db} }

// Compile lowers a first-order formula (under an environment binding
// its free variables) to a bytecode program. Grounding resolves every
// atom against the observed structure; atoms whose truth cannot vary
// across worlds — certain atoms and the deterministic mu = 1 flips —
// fold to constants, and each uncertain atom becomes the program
// variable of its flip bit. Because the block samplers (internal/mc)
// represent a sampled world as exactly those flip bits, a compiled
// program evaluated against the flip bitset agrees with logic.Eval on
// the materialized world.
//
// Shapes that don't compile (second-order quantifiers, grounding
// blowups past logic.MaxGroundTerms, programs past MaxCode) return an
// error; callers fall back to the interpreter and record the fallback
// in the result trail.
func (c *Compiler) Compile(f logic.Formula, env logic.Env) (*Program, error) {
	if err := faultinject.Hit(faultinject.SiteVMCompile); err != nil {
		return nil, err
	}
	if !logic.Compilable(f) {
		return nil, fmt.Errorf("vm: formula shape does not compile (second-order quantifier)")
	}
	pf, err := logic.Ground(c.db.A, f, env, worldAtoms{c.db})
	if err != nil {
		return nil, fmt.Errorf("vm: grounding: %w", err)
	}
	pf = prop.Fold(c.remap(pf), nil)
	return CompileProp(pf, c.db.NumUncertain())
}

// Compile is the one-shot form of Compiler.Compile.
func Compile(db *unreliable.DB, f logic.Formula, env logic.Env) (*Program, error) {
	return NewCompiler(db).Compile(f, env)
}

// worldAtoms numbers grounded atoms by what they are in world space, so
// compiling keeps no atom index: uncertain atom i (canonical order) is
// 2i when the observed structure lacks it and 2i+1 when it holds it;
// an atom whose value is the same in every world — a certain atom, or a
// deterministic mu = 1 flip — is 2u when true there and 2u+1 when false.
type worldAtoms struct{ db *unreliable.DB }

func (w worldAtoms) ID(a rel.GroundAtom) int {
	holds := w.db.A.Holds(a.Rel, a.Args)
	i, sure := w.db.FlipIndex(a)
	switch {
	case i >= 0 && holds:
		return 2*i + 1
	case i >= 0:
		return 2 * i
	case holds != sure:
		return 2 * w.db.NumUncertain()
	default:
		return 2*w.db.NumUncertain() + 1
	}
}

// remap substitutes every grounded-atom variable (a worldAtoms id) with
// its world-space formula: the flip variable for an uncertain atom —
// negated when the observed structure holds the atom, since its world
// value is the observed value XOR the flip bit — and a constant
// otherwise. The grounder's ids and the flip variable space are
// different numberings, so this must run before CompileProp sees the
// formula.
func (c *Compiler) remap(f prop.Formula) prop.Formula {
	switch g := f.(type) {
	case prop.FVar:
		switch u := c.db.NumUncertain(); {
		case int(g) == 2*u:
			return prop.FTrue{}
		case int(g) == 2*u+1:
			return prop.FFalse{}
		case g%2 == 1:
			return prop.FNot{F: g / 2}
		default:
			return g / 2
		}
	case prop.FNot:
		return prop.FNot{F: c.remap(g.F)}
	case prop.FAnd:
		out := make(prop.FAnd, len(g))
		for i, h := range g {
			out[i] = c.remap(h)
		}
		return out
	case prop.FOr:
		out := make(prop.FOr, len(g))
		for i, h := range g {
			out[i] = c.remap(h)
		}
		return out
	default:
		return f
	}
}
