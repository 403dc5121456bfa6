// Package core implements the paper's primary contribution: computation
// of query reliability on unreliable databases, with one engine per
// complexity result and a dispatcher that mirrors the paper's
// classification.
//
// For a k-ary query psi on an unreliable database D = (A, mu), the
// expected error H_psi(D) is the expected Hamming distance between
// psi^A and psi^B over random worlds B ∈ Omega(D), and the reliability
// is R_psi(D) = 1 − H_psi(D)/n^k (Definition 2.2).
//
// Engines:
//
//   - QuantifierFree — Proposition 3.1: exact, polynomial time.
//   - WorldEnum — Theorem 4.2: exact for any query (incl. second-order)
//     by enumerating the 2^u worlds; exponential in the number of
//     uncertain atoms, which is the deterministic cost of one #P oracle
//     call.
//   - LineageBDD — exact for existential/universal queries via the
//     Theorem 5.4 grounding compiled to a BDD.
//   - LineageKL — Theorem 5.4 + Corollary 5.5: the Karp–Luby FPTRAS on
//     the lineage, with per-tuple (ε/n^k, δ/n^k) splitting.
//   - MonteCarlo — Theorem 5.12: absolute-error randomized estimation
//     for any polynomial-time evaluable query.
//
// The dispatcher Reliability picks the cheapest sound engine and
// reports which guarantee the result carries.
package core

import (
	"context"
	"fmt"
	"math/big"

	"qrel/internal/logic"
	"qrel/internal/mc"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// Guarantee describes the strength of a Result.
type Guarantee int

// Guarantee levels.
const (
	// Exact: H and R are exact rationals.
	Exact Guarantee = iota
	// RelativeError: Pr[|value − truth| > Eps·truth] < Delta (FPTRAS).
	RelativeError
	// AbsoluteError: Pr[|value − truth| > Eps] < Delta (Corollary 5.5 /
	// Theorem 5.12).
	AbsoluteError
)

// String names the guarantee.
func (g Guarantee) String() string {
	switch g {
	case Exact:
		return "exact"
	case RelativeError:
		return "relative(eps,delta)"
	case AbsoluteError:
		return "absolute(eps,delta)"
	default:
		return fmt.Sprintf("Guarantee(%d)", int(g))
	}
}

// Result is the outcome of a reliability computation.
type Result struct {
	// H is the exact expected error, nil for randomized engines.
	H *big.Rat
	// R is the exact reliability, nil for randomized engines.
	R *big.Rat
	// HFloat and RFloat are always populated.
	HFloat, RFloat float64
	// Arity is the query arity k; the normalizer is n^k.
	Arity int
	// Engine names the engine that produced the result.
	Engine string
	// Guarantee describes the error semantics.
	Guarantee Guarantee
	// Eps, Delta are the parameters of a randomized guarantee. When
	// Degraded is set, Eps is the honestly widened accuracy the realized
	// sample count supports (anytime estimation), not the requested one.
	Eps, Delta float64
	// Samples is the total number of Monte Carlo samples drawn.
	Samples int
	// Class is the detected query class.
	Class logic.Class
	// Degraded reports that cancellation or a resource budget cut the
	// computation short and the result carries a weakened (but still
	// valid) guarantee — see Eps.
	Degraded bool
	// Seed echoes the PRNG seed the computation ran under (Options.Seed).
	// Recording it in the result is what makes a run reproducible and a
	// checkpoint resumable: rerunning with this seed (and the same query,
	// database, and accuracy) yields bit-identical estimates.
	Seed int64
	// Resumed reports that the computation restored a checkpoint and
	// continued from it rather than starting fresh (see
	// Options.Checkpoint).
	Resumed bool
	// EvalMode reports how the sampling engines evaluated the query per
	// world: EvalCompiled (internal/vm bytecode, 64 worlds per pass) or
	// EvalInterpreted (the logic.Prepared tree walk). The two are
	// bit-identical for a fixed seed; the mode only affects throughput.
	// Empty for exact engines, which never sample worlds.
	EvalMode string
	// FallbackTrail records the engines the dispatcher tried and
	// abandoned (budget exhaustion, crashes) before the engine named in
	// Engine produced this result, and any compiled-evaluation fallback
	// (Engine "vm") the winning engine took. Empty when the first choice
	// worked in the requested mode.
	FallbackTrail []FallbackStep
	// LaneRange, for a run restricted to a lane subrange (see
	// Options.LaneRange), carries the raw per-lane aggregates a cluster
	// coordinator merges; HFloat/RFloat are then partial-range values and
	// not meaningful on their own. Nil for whole-run results.
	LaneRange *LaneRangeResult
	// Budget echoes the resource budget the computation ran under.
	Budget Budget
}

// setExact fills a Result from exact H with normalizer n^k.
func setExact(res *Result, h *big.Rat, n, k int) {
	res.H = h
	norm := normalizer(n, k)
	r := new(big.Rat).Quo(h, norm)
	r.Sub(big.NewRat(1, 1), r)
	res.R = r
	res.HFloat, _ = h.Float64()
	res.RFloat, _ = r.Float64()
	res.Arity = k
	res.Guarantee = Exact
}

// normalizer returns n^k as a rational (1 for k = 0).
func normalizer(n, k int) *big.Rat {
	v := big.NewInt(1)
	for i := 0; i < k; i++ {
		v.Mul(v, big.NewInt(int64(n)))
	}
	return new(big.Rat).SetInt(v)
}

// DefaultEps and DefaultDelta are the randomized-guarantee parameters
// a zero Options resolves to. They are exported so that layers which
// re-derive the sample plan outside an engine run — the cluster
// coordinator merging per-replica lane aggregates — default exactly as
// the replicas did.
const (
	DefaultEps   = 0.05
	DefaultDelta = 0.05
)

// Options configures the engines; the zero value uses the defaults.
type Options struct {
	// Eps, Delta are the randomized-guarantee parameters
	// (default DefaultEps/DefaultDelta).
	Eps, Delta float64
	// Seed seeds the deterministic RNG of randomized engines.
	Seed int64
	// Workers only schedules: the randomized engines split the sample
	// stream derived from Seed into mc.DefaultLanes fixed RNG lanes and
	// drive them on up to Workers goroutines (0 and 1: one goroutine,
	// the caller's). The estimate is a function of (Seed, lane count)
	// only, so every Workers value yields the identical,
	// bit-reproducible result, and a snapshot resumes under any of them.
	Workers int
	// Eval selects how the sampling engines evaluate the query per
	// sampled world: EvalAuto (default; compile to internal/vm bytecode
	// and evaluate 64 worlds bit-parallel, falling back to the
	// interpreter for shapes that don't compile), EvalCompiled (same
	// resolution, stated explicitly), or EvalInterpreted (force the
	// logic.Prepared tree walk). The modes are bit-identical for a fixed
	// seed — estimates, checkpoints, and lane digests all match — so the
	// mode is not part of the checkpoint fingerprint and snapshots
	// interchange freely across it. The exact enumeration engines
	// (quantifier-free, world enumeration) resolve it the same way for
	// the worlds they enumerate, with the same exact H and R either way.
	Eval string
	// MaxEnumAtoms caps exact world enumeration (default 16).
	MaxEnumAtoms int
	// Budget bounds wall-clock time, samples, BDD nodes and worlds
	// uniformly across engines; the zero value imposes no extra bounds.
	Budget Budget
	// Breaker, when non-nil, is consulted before every dispatch rung and
	// observes every rung outcome — see RungBreaker. A serving layer
	// shares one breaker across requests so that an engine crashing
	// repeatedly is skipped process-wide until it recovers.
	Breaker RungBreaker
	// Checkpoint, when non-nil, makes the randomized engines persist
	// their loop state (counters plus PRNG state) through the configured
	// snapshot store and, with Checkpoint.Resume set, continue from the
	// newest good snapshot. A resumed run is bit-identical to an
	// uninterrupted run with the same Seed. Exact engines ignore it.
	Checkpoint *CheckpointConfig
	// LaneRange, when non-nil, restricts the run to the lane subrange
	// [Lo,Hi) of a Total-lane split — the unit of work a cluster
	// coordinator assigns to one replica. Quotas and RNG streams are
	// derived over all Total lanes exactly as a single-node run would, so the per-lane aggregates (Result.LaneRange) merge to the
	// bit-identical whole. Only the monte-carlo-direct engine, selected
	// explicitly, supports it.
	LaneRange *mc.Range
}

func (o Options) withDefaults() Options {
	if o.Eps == 0 {
		o.Eps = DefaultEps
	}
	if o.Eval == "" {
		o.Eval = EvalAuto
	}
	if o.Delta == 0 {
		o.Delta = DefaultDelta
	}
	if o.MaxEnumAtoms == 0 {
		o.MaxEnumAtoms = 16
	}
	return o
}

// forEachFreeTuple runs fn for every instantiation env of the free
// variables of f over A^k, in lexicographic order, polling ctx between
// tuples — the per-tuple loop is the outermost hot loop of every
// tuple-splitting engine.
func forEachFreeTuple(ctx context.Context, s *rel.Structure, f logic.Formula, fn func(env logic.Env, tuple rel.Tuple) error) (arity int, err error) {
	vars := logic.FreeVars(f)
	env := logic.Env{}
	var innerErr error
	rel.ForEachTuple(s.N, len(vars), func(t rel.Tuple) bool {
		if err := ctx.Err(); err != nil {
			innerErr = err
			return false
		}
		for i, v := range vars {
			env[v] = t[i]
		}
		if err := fn(env, t); err != nil {
			innerErr = err
			return false
		}
		return true
	})
	return len(vars), innerErr
}

// nuAssignment builds the probability assignment for the atoms of an
// index: p[i] = nu(atom_i), the snapshot's shared read-only values
// (unreliable.DB.Nu).
func nuAssignment(db *unreliable.DB, ix *logic.AtomIndex) []*big.Rat {
	p := make([]*big.Rat, ix.Len())
	for i, atom := range ix.Atoms() {
		p[i] = db.Nu(atom)
	}
	return p
}
