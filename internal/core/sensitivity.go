package core

import (
	"context"
	"fmt"
	"math/big"
	"sort"

	"qrel/internal/logic"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// Sensitivity reports how much one uncertain atom drives a query's
// risk: the expected error H with the atom's truth fixed either way,
// both measured against the observed answer ψ^A, which the user still
// holds.
type Sensitivity struct {
	// Atom is the analyzed ground atom.
	Atom rel.GroundAtom
	// Nu is Pr[atom holds in the actual database].
	Nu *big.Rat
	// HTrue and HFalse are the expected errors on the database
	// conditioned on the atom holding and on it failing.
	HTrue, HFalse *big.Rat
	// HResolved = ν·HTrue + (1−ν)·HFalse, which by total probability
	// equals the query's unconditioned H.
	HResolved *big.Rat
	// Spread = |HTrue − HFalse| is how far the atom's truth moves H;
	// RankSensitivities orders atoms by it.
	Spread *big.Rat
}

// AtomSensitivity computes the Sensitivity of one uncertain atom for a
// query, using exact world enumeration on the conditioned databases.
// The enumerations poll ctx and stop at opts.Budget.Timeout; errors
// follow ReliabilityWith's taxonomy.
func AtomSensitivity(ctx context.Context, db *unreliable.DB, f logic.Formula, atom rel.GroundAtom, opts Options) (Sensitivity, error) {
	return bounded(ctx, "sensitivity", opts, func(ctx context.Context, opts Options) (Sensitivity, error) {
		return atomSensitivity(ctx, db, f, atom, opts)
	})
}

func atomSensitivity(ctx context.Context, db *unreliable.DB, f logic.Formula, atom rel.GroundAtom, opts Options) (Sensitivity, error) {
	nu := db.NuAtom(atom)
	one := big.NewRat(1, 1)
	if nu.Sign() == 0 || nu.Cmp(one) == 0 {
		return Sensitivity{}, fmt.Errorf("core: atom %v is certain; sensitivity undefined", atom)
	}
	condT, err := db.Condition(atom, true)
	if err != nil {
		return Sensitivity{}, err
	}
	condF, err := db.Condition(atom, false)
	if err != nil {
		return Sensitivity{}, err
	}
	// The conditional H must be measured against the ORIGINAL observed
	// answer (the user still holds psi^A), so evaluate with WorldEnum on
	// databases whose observed structure is unchanged: Condition keeps A
	// and only reshapes mu, which is exactly what we need.
	resT, err := WorldEnum(ctx, condT, f, opts)
	if err != nil {
		return Sensitivity{}, err
	}
	resF, err := WorldEnum(ctx, condF, f, opts)
	if err != nil {
		return Sensitivity{}, err
	}
	resolved := new(big.Rat).Mul(nu, resT.H)
	resolved.Add(resolved, new(big.Rat).Mul(new(big.Rat).Sub(one, nu), resF.H))
	spread := new(big.Rat).Sub(resT.H, resF.H)
	if spread.Sign() < 0 {
		spread.Neg(spread)
	}
	return Sensitivity{
		Atom:      atom,
		Nu:        nu,
		HTrue:     resT.H,
		HFalse:    resF.H,
		HResolved: resolved,
		Spread:    spread,
	}, nil
}

// RankSensitivities computes sensitivities for every uncertain atom and
// returns them sorted by decreasing spread — the triage list: verify
// the top atoms first to pin down the query's risk. Exponential in the
// number of uncertain atoms (two world enumerations per atom); bounded
// by opts.MaxEnumAtoms, and as a whole by ctx and opts.Budget.Timeout.
func RankSensitivities(ctx context.Context, db *unreliable.DB, f logic.Formula, opts Options) ([]Sensitivity, error) {
	return bounded(ctx, "sensitivity", opts, func(ctx context.Context, opts Options) ([]Sensitivity, error) {
		atoms := db.UncertainAtoms()
		out := make([]Sensitivity, 0, len(atoms))
		for _, atom := range atoms {
			s, err := atomSensitivity(ctx, db, f, atom, opts)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
		sort.SliceStable(out, func(i, j int) bool { return out[i].Spread.Cmp(out[j].Spread) > 0 })
		return out, nil
	})
}
