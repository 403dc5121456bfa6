package core

import (
	"context"
	"math/big"

	"qrel/internal/faultinject"
	"qrel/internal/logic"
	"qrel/internal/rel"
	"qrel/internal/safeplan"
	"qrel/internal/unreliable"
)

// SafePlan computes the exact reliability of a hierarchical conjunctive
// query without self-joins in polynomial time via the Dalvi–Suciu
// extensional plan (independent join / independent project). The plan
// is compiled once from the query; the free variables of a k-ary query
// are its outermost levels, so only the tuples ā that the support rows
// admit are visited — every other tuple has Pr[psi(ā)] = 0 and is false
// in A, and adds nothing to H. Queries outside the safe fragment get
// safeplan.ErrNotHierarchical (or a validation error) before any data
// is read; the dispatcher then falls back to the intensional engines.
// The evaluation polls ctx.
func SafePlan(ctx context.Context, db *unreliable.DB, f logic.Formula, _ Options) (Result, error) {
	ctx = orBackground(ctx)
	if err := faultinject.Hit(faultinject.SiteSafePlan); err != nil {
		return Result{}, err
	}
	q, err := safeplan.FromFormula(f)
	if err != nil {
		return Result{}, err
	}
	// H = Σ_ā Pr[psi(ā)^B ≠ psi(ā)^A]: the plan hands over Pr[psi(ā)^B]
	// unreduced, so a Boolean query normalises exactly once.
	h := new(big.Rat)
	var term big.Rat
	var miss big.Int
	err = q.Eval(ctx, db, func(_ rel.Tuple, num, den *big.Int, observed bool) {
		if observed {
			num = miss.Sub(den, num)
		}
		if num.Sign() != 0 {
			h.Add(h, term.SetFrac(num, den))
		}
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{Engine: "safe-plan", Class: logic.Classify(f)}
	setExact(&res, h, db.A.N, len(q.Free))
	return res, nil
}
