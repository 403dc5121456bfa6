package prop

import (
	"fmt"
	"math/big"
)

// ErrBudget is returned (wrapped) by exponential-time exact algorithms
// when the instance exceeds the caller-supplied budget.
var ErrBudget = fmt.Errorf("prop: instance exceeds budget for exact computation")

// CountBruteForce computes #DNF — the number of satisfying assignments
// over all NumVars variables — by enumerating the 2^NumVars assignments.
// It fails with ErrBudget if NumVars > maxVars.
func (d DNF) CountBruteForce(maxVars int) (*big.Int, error) {
	if d.NumVars > maxVars || d.NumVars > 62 {
		return nil, fmt.Errorf("%w: %d variables (max %d)", ErrBudget, d.NumVars, maxVars)
	}
	count := big.NewInt(0)
	one := big.NewInt(1)
	a := make([]bool, d.NumVars)
	total := uint64(1) << uint(d.NumVars)
	for m := uint64(0); m < total; m++ {
		for i := range a {
			a[i] = m&(1<<uint(i)) != 0
		}
		if d.Eval(a) {
			count.Add(count, one)
		}
	}
	return count, nil
}

// CountInclusionExclusion computes #DNF by inclusion–exclusion over the
// terms: |sat(T1) ∪ ... ∪ Tm| = Σ_{∅≠S} (−1)^{|S|+1} |sat(∧S)|, where
// the intersection count is 2^(NumVars − fixed) when the combined term
// is satisfiable and 0 otherwise. Exponential in the number of terms; it
// fails with ErrBudget if len(Terms) > maxTerms.
func (d DNF) CountInclusionExclusion(maxTerms int) (*big.Int, error) {
	m := len(d.Terms)
	if m > maxTerms || m > 30 {
		return nil, fmt.Errorf("%w: %d terms (max %d)", ErrBudget, m, maxTerms)
	}
	total := big.NewInt(0)
	for s := uint64(1); s < uint64(1)<<uint(m); s++ {
		var combined Term
		bits := 0
		for i := 0; i < m; i++ {
			if s&(1<<uint(i)) != 0 {
				combined = append(combined, d.Terms[i]...)
				bits++
			}
		}
		nt, sat := combined.Normalize()
		if !sat {
			continue
		}
		free := uint(d.NumVars - len(nt))
		cnt := new(big.Int).Lsh(big.NewInt(1), free)
		if bits%2 == 1 {
			total.Add(total, cnt)
		} else {
			total.Sub(total, cnt)
		}
	}
	return total, nil
}

// TermSatCount returns |sat(t)| over numVars variables: 2^(numVars − L)
// where L is the number of distinct variables fixed by the (satisfiable)
// normalized term, or 0 for an unsatisfiable term.
func TermSatCount(t Term, numVars int) *big.Int {
	nt, sat := t.Normalize()
	if !sat {
		return big.NewInt(0)
	}
	return new(big.Int).Lsh(big.NewInt(1), uint(numVars-len(nt)))
}

// ProbAssignment is a probability function on variables: p[v] is the
// probability that variable v is true, as an exact rational
// (Definition 5.1's nu).
type ProbAssignment []*big.Rat

// UniformProb returns the probability assignment giving every variable
// probability 1/2.
func UniformProb(numVars int) ProbAssignment {
	p := make(ProbAssignment, numVars)
	half := big.NewRat(1, 2)
	for i := range p {
		p[i] = half
	}
	return p
}

// Validate checks that the assignment covers numVars variables and every
// probability lies in [0, 1].
func (p ProbAssignment) Validate(numVars int) error {
	if len(p) < numVars {
		return fmt.Errorf("prop: probability assignment covers %d of %d variables", len(p), numVars)
	}
	for v, pr := range p {
		if pr == nil {
			return fmt.Errorf("prop: variable %d has nil probability", v)
		}
		// Num and Denom are normalised and Denom > 0, so this is
		// 0 ≤ pr ≤ 1 without Rat.Cmp's cross products.
		if pr.Sign() < 0 || (pr.IsInt() && pr.Num().BitLen() > 1) || (!pr.IsInt() && pr.Num().Cmp(pr.Denom()) > 0) {
			return fmt.Errorf("prop: variable %d has probability %v outside [0,1]", v, pr)
		}
	}
	return nil
}

// LitProb returns the probability of the literal under p.
func (p ProbAssignment) LitProb(l Lit) *big.Rat {
	if l.Neg {
		return new(big.Rat).Sub(big.NewRat(1, 1), p[l.Var])
	}
	return new(big.Rat).Set(p[l.Var])
}

// TermProb returns the probability that the (normalized) term holds:
// the product of its distinct literal probabilities; 0 for an
// unsatisfiable term.
func (p ProbAssignment) TermProb(t Term) *big.Rat {
	nt, sat := t.Normalize()
	if !sat {
		return new(big.Rat)
	}
	pr := big.NewRat(1, 1)
	for _, l := range nt {
		pr.Mul(pr, p.LitProb(l))
	}
	return pr
}

// ProbBruteForce computes Prob-DNF — the probability that the formula is
// true when each variable v is independently true with probability p[v]
// — by enumerating assignments. Fails with ErrBudget if NumVars >
// maxVars.
func (d DNF) ProbBruteForce(p ProbAssignment, maxVars int) (*big.Rat, error) {
	if err := p.Validate(d.NumVars); err != nil {
		return nil, err
	}
	if d.NumVars > maxVars || d.NumVars > 30 {
		return nil, fmt.Errorf("%w: %d variables (max %d)", ErrBudget, d.NumVars, maxVars)
	}
	total := new(big.Rat)
	a := make([]bool, d.NumVars)
	one := big.NewRat(1, 1)
	n := uint64(1) << uint(d.NumVars)
	for m := uint64(0); m < n; m++ {
		for i := range a {
			a[i] = m&(1<<uint(i)) != 0
		}
		if !d.Eval(a) {
			continue
		}
		w := new(big.Rat).Set(one)
		for i, v := range a {
			if v {
				w.Mul(w, p[i])
			} else {
				w.Mul(w, new(big.Rat).Sub(one, p[i]))
			}
		}
		total.Add(total, w)
	}
	return total, nil
}

// ProbInclusionExclusion computes Prob-DNF by inclusion–exclusion over
// terms, exact in the rationals. Exponential in the number of terms;
// fails with ErrBudget if len(Terms) > maxTerms.
func (d DNF) ProbInclusionExclusion(p ProbAssignment, maxTerms int) (*big.Rat, error) {
	if err := p.Validate(d.NumVars); err != nil {
		return nil, err
	}
	m := len(d.Terms)
	if m > maxTerms || m > 30 {
		return nil, fmt.Errorf("%w: %d terms (max %d)", ErrBudget, m, maxTerms)
	}
	total := new(big.Rat)
	for s := uint64(1); s < uint64(1)<<uint(m); s++ {
		var combined Term
		bits := 0
		for i := 0; i < m; i++ {
			if s&(1<<uint(i)) != 0 {
				combined = append(combined, d.Terms[i]...)
				bits++
			}
		}
		pr := p.TermProb(combined)
		if bits%2 == 1 {
			total.Add(total, pr)
		} else {
			total.Sub(total, pr)
		}
	}
	return total, nil
}

// UnionBound returns Σ_i Pr[T_i], the union upper bound on Prob-DNF;
// this quantity is the normalizer of the Karp–Luby estimator.
func (d DNF) UnionBound(p ProbAssignment) *big.Rat {
	total := new(big.Rat)
	for _, t := range d.Terms {
		total.Add(total, p.TermProb(t))
	}
	return total
}
