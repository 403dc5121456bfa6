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
// variable of its flip bit. Because SampleWorldInto represents a
// sampled world as exactly those flip bits, a compiled program
// evaluated against the flip bitset agrees with logic.Eval on the
// materialized world.
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
	ix := logic.NewAtomIndex()
	pf, err := logic.Ground(c.db.A, f, env, ix)
	if err != nil {
		return nil, fmt.Errorf("vm: grounding: %w", err)
	}
	pf = prop.Fold(c.remap(pf, ix), nil)
	return CompileProp(pf, c.db.NumUncertain())
}

// Compile is the one-shot form of Compiler.Compile.
func Compile(db *unreliable.DB, f logic.Formula, env logic.Env) (*Program, error) {
	return NewCompiler(db).Compile(f, env)
}

// atomFormula resolves one grounded atom to its world-space formula:
// the flip variable (possibly negated) for an uncertain atom, a
// constant otherwise.
func (c *Compiler) atomFormula(a rel.GroundAtom) prop.Formula {
	holds := c.db.A.Holds(a.Rel, a.Args)
	i, sure := c.db.FlipIndex(a)
	if i >= 0 {
		// World value = observed value XOR flip bit: an atom the
		// observed structure holds is true exactly when its flip bit is
		// clear, and vice versa.
		if holds {
			return prop.FNot{F: prop.FVar(i)}
		}
		return prop.FVar(i)
	}
	if sure {
		holds = !holds
	}
	if holds {
		return prop.FTrue{}
	}
	return prop.FFalse{}
}

// remap substitutes every grounded-atom variable (an AtomIndex id)
// with its world-space resolution. The grounder's ids and the flip
// variable space are unrelated numberings, so this must run before
// CompileProp sees the formula.
func (c *Compiler) remap(f prop.Formula, ix *logic.AtomIndex) prop.Formula {
	switch g := f.(type) {
	case prop.FVar:
		return c.atomFormula(ix.Atom(int(g)))
	case prop.FNot:
		return prop.FNot{F: c.remap(g.F, ix)}
	case prop.FAnd:
		out := make(prop.FAnd, len(g))
		for i, h := range g {
			out[i] = c.remap(h, ix)
		}
		return out
	case prop.FOr:
		out := make(prop.FOr, len(g))
		for i, h := range g {
			out[i] = c.remap(h, ix)
		}
		return out
	default:
		return f
	}
}
