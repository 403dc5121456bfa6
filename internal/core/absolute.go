package core

import (
	"context"
	"math/big"

	"qrel/internal/logic"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// AbsoluteResult is the outcome of an absolute-reliability decision
// (Definition 5.6): whether R_psi(D) = 1, i.e. no possible world changes
// any answer tuple.
type AbsoluteResult struct {
	// Reliable reports D ∈ AR_psi.
	Reliable bool
	// Witness, when Reliable is false, is a world B with
	// psi^B ≠ psi^A.
	Witness *rel.Structure
	// Engine names the decision procedure used.
	Engine string
}

// absoluteQF decides the absolute reliability of a quantifier-free
// query in polynomial time (Lemma 5.7): it computes H exactly with the
// Proposition 3.1 engine and tests H = 0.
func absoluteQF(db *unreliable.DB, f logic.Formula, opts Options) (AbsoluteResult, error) {
	res, err := QuantifierFree(context.Background(), db, f, opts)
	if err != nil {
		return AbsoluteResult{}, err
	}
	return AbsoluteResult{Reliable: res.H.Sign() == 0, Engine: "qfree-exact"}, nil
}

// absoluteWitness decides absolute reliability for an arbitrary
// polynomial-time evaluable query by searching the world space for a
// counterexample — the deterministic simulation of the co-NP procedure
// of Lemma 5.8 ("guess a database B and check whether the truth values
// differ"). Exponential in the number of uncertain atoms, bounded by
// opts.MaxEnumAtoms.
func absoluteWitness(db *unreliable.DB, f logic.Formula, opts Options) (AbsoluteResult, error) {
	opts = opts.withDefaults()
	prep := logic.Prepare(f)
	observed, err := truths(db.A, prep)
	if err != nil {
		return AbsoluteResult{}, err
	}
	var witness *rel.Structure
	var evalErr error
	err = db.ForEachWorld(opts.MaxEnumAtoms, func(b *rel.Structure, _ *big.Rat) bool {
		diff, err := mismatches(b, prep, observed)
		if err != nil {
			evalErr = err
			return false
		}
		if diff > 0 {
			witness = b
			return false
		}
		return true
	})
	if err != nil {
		return AbsoluteResult{}, err
	}
	if evalErr != nil {
		return AbsoluteResult{}, evalErr
	}
	return AbsoluteResult{Reliable: witness == nil, Witness: witness, Engine: "witness-search"}, nil
}

// AbsoluteReliability dispatches the absolute reliability decision:
// Lemma 5.7's polynomial algorithm for quantifier-free queries,
// otherwise the Lemma 5.8 witness search.
func AbsoluteReliability(db *unreliable.DB, f logic.Formula, opts Options) (AbsoluteResult, error) {
	if logic.IsQuantifierFree(f) {
		return absoluteQF(db, f, opts)
	}
	return absoluteWitness(db, f, opts)
}
