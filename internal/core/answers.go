package core

import (
	"math/big"

	"qrel/internal/logic"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// AnswerModality classifies the answer tuples of a query on an
// unreliable database in the classic possible/certain sense:
// a tuple is *certain* when it belongs to psi^B in every world of
// positive probability, and *possible* when it belongs to psi^B in at
// least one.
type AnswerModality struct {
	// Certain are the tuples in every world's answer, sorted.
	Certain []rel.Tuple
	// Possible are the tuples in at least one world's answer, sorted
	// (a superset of Certain).
	Possible []rel.Tuple
}

// PossibleCertainAnswers computes the certain and possible answers by
// world enumeration (2^u worlds, bounded by opts.MaxEnumAtoms). The
// observed answer always lies between the two:
// Certain ⊆ psi^A ∩ ... — not in general! psi^A need not contain the
// certain answers when the observed database itself has positive
// probability of being wrong on relevant atoms; the inclusion
// Certain ⊆ Possible is the only guaranteed one (verified in tests).
func PossibleCertainAnswers(db *unreliable.DB, f logic.Formula, opts Options) (AnswerModality, error) {
	opts = opts.withDefaults()
	prep := logic.Prepare(f)
	// certain and possible are indexed like rel.ForEachTuple walks A^k;
	// seen reports whether a world has set them yet.
	var (
		certain, possible []bool
		seen              bool
		evalErr           error
	)
	err := db.ForEachWorld(opts.MaxEnumAtoms, func(b *rel.Structure, nu *big.Rat) bool {
		if nu.Sign() == 0 {
			return true
		}
		evalErr = prep.Truths(b, func(i int, v bool) {
			if !seen {
				certain, possible = append(certain, v), append(possible, v)
				return
			}
			certain[i] = certain[i] && v
			possible[i] = possible[i] || v
		})
		seen = true
		return evalErr == nil
	})
	if err != nil {
		return AnswerModality{}, err
	}
	if evalErr != nil {
		return AnswerModality{}, evalErr
	}
	am := AnswerModality{Certain: []rel.Tuple{}, Possible: []rel.Tuple{}}
	if !seen {
		return am, nil
	}
	i := 0
	rel.ForEachTuple(db.A.N, len(logic.FreeVars(f)), func(t rel.Tuple) bool {
		if certain[i] {
			am.Certain = append(am.Certain, t.Clone())
		}
		if possible[i] {
			am.Possible = append(am.Possible, t.Clone())
		}
		i++
		return true
	})
	return am, nil
}
