package core

import (
	"qrel/internal/logic"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
	"qrel/internal/vm"
)

// Evaluation modes (Options.Eval, Result.EvalMode). The compiled mode
// replaces the per-world logic.Prepared walk with internal/vm bytecode
// evaluated 64 worlds at a time — sampled worlds in the sampling
// engines, enumerated ones in the exact enumeration engines. It is
// bit-identical to the interpreted mode — same estimates, same
// checkpoints, same lane digests, same exact rationals — so the mode is
// a pure performance knob and is deliberately NOT part of the
// checkpoint fingerprint: snapshots interchange freely across modes,
// and replicas of one cluster run may disagree on it without breaking
// attestation.
const (
	EvalAuto        = "auto"
	EvalCompiled    = "compiled"
	EvalInterpreted = "interpreted"
)

// KnownEvalMode reports whether m names an evaluation mode (the empty
// string reads as EvalAuto). Serving layers use it to reject bad modes
// at admission.
func KnownEvalMode(m string) bool {
	switch m {
	case "", EvalAuto, EvalCompiled, EvalInterpreted:
		return true
	}
	return false
}

// evalPlan is the resolved evaluation mode of one engine run:
// the per-tuple compiled programs when compilation succeeded, or the
// interpreter with the abandoned compile recorded for the trail.
type evalPlan struct {
	// progs and base hold, per free-variable tuple of the query in
	// rel.ForEachTuple order, the compiled program and the observed
	// truth value psi(ā)^A. Nil in interpreted mode.
	progs []*vm.Program
	base  []bool
	// mode is EvalCompiled or EvalInterpreted.
	mode string
	// trail records the compile failure that forced interpreted mode,
	// for Result.FallbackTrail. Nil when the mode was honored directly.
	trail []FallbackStep
}

func (p evalPlan) compiled() bool { return p.mode == EvalCompiled }

// planEval resolves opts.Eval for a query: unless the interpreter was
// requested explicitly, compile one program per free-variable tuple
// and fall back to the interpreter on any failure — compilation is
// all-or-nothing, so one engine run never mixes modes across tuples.
func planEval(db *unreliable.DB, f logic.Formula, opts Options) evalPlan {
	if opts.Eval == EvalInterpreted {
		return evalPlan{mode: EvalInterpreted}
	}
	progs, base, err := compilePrograms(db, f)
	if err != nil {
		return evalPlan{mode: EvalInterpreted, trail: []FallbackStep{{Engine: "vm", Err: err.Error()}}}
	}
	return evalPlan{mode: EvalCompiled, progs: progs, base: base}
}

// compilePrograms compiles f(ā) for every instantiation ā of its free
// variables, in the same lexicographic tuple order the engines walk,
// along with the observed truth values.
func compilePrograms(db *unreliable.DB, f logic.Formula) ([]*vm.Program, []bool, error) {
	comp := vm.NewCompiler(db)
	prep := logic.Prepare(f)
	vars := logic.FreeVars(f)
	env := logic.Env{}
	var (
		progs    []*vm.Program
		base     []bool
		innerErr error
	)
	rel.ForEachTuple(db.A.N, len(vars), func(t rel.Tuple) bool {
		for i, v := range vars {
			env[v] = t[i]
		}
		p, err := comp.Compile(f, env)
		if err != nil {
			innerErr = err
			return false
		}
		obs, err := prep.Holds(db.A, t)
		if err != nil {
			innerErr = err
			return false
		}
		progs = append(progs, p)
		base = append(base, obs)
		return true
	})
	if innerErr != nil {
		return nil, nil, innerErr
	}
	return progs, base, nil
}
