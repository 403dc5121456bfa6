package karpluby

import (
	"context"
	"fmt"
	"math/big"

	"qrel/internal/mc"
	"qrel/internal/prop"
)

// Reduction is the output of the Prob-kDNF → #DNF transformation in the
// proof of Theorem 5.3. For each variable X of the input formula with
// probability ν(X) = p/q, a block Ȳ of len(q) fresh bits is introduced;
// X is replaced by the DNF "val(Ȳ) < p" and ¬X by "val(Ȳ) ≥ p". An
// assignment to a block is *illegal* when val(Ȳ) ≥ q. PhiPP is the
// formula φ” = φ' ∨ ⋁_X "val(Ȳ_X) ≥ q_X", which is satisfied by every
// illegal assignment, so that
//
//	ν(φ) = (#φ'' − illegal) / legal,
//
// where legal = Π_X q_X and illegal = 2^bits − legal.
type Reduction struct {
	// PhiPP is φ'' over the fresh bit variables.
	PhiPP prop.DNF
	// Blocks maps each original variable to its bit block.
	Blocks []prop.BitBlock
	// Legal is Π q_X, the number of legal assignments.
	Legal *big.Int
	// Bits is the total number of fresh variables.
	Bits int
}

// Illegal returns 2^Bits − Legal.
func (r *Reduction) Illegal() *big.Int {
	total := new(big.Int).Lsh(big.NewInt(1), uint(r.Bits))
	return total.Sub(total, r.Legal)
}

// Recover converts an exact (or approximate) count of φ” into the
// probability ν(φ) = (#φ” − illegal)/legal.
func (r *Reduction) Recover(countPhiPP *big.Rat) *big.Rat {
	res := new(big.Rat).Sub(countPhiPP, new(big.Rat).SetInt(r.Illegal()))
	return res.Quo(res, new(big.Rat).SetInt(r.Legal))
}

// MaxReductionTerms bounds the size of φ” (the construction is
// exponential in the width k of the input but polynomial in its length).
const MaxReductionTerms = 1 << 20

// Reduce performs the Theorem 5.3 construction on a kDNF d with
// variable probabilities p. All probabilities must be rationals in
// [0, 1]; they need not be dyadic.
func Reduce(d prop.DNF, p prop.ProbAssignment) (*Reduction, error) {
	if err := p.Validate(d.NumVars); err != nil {
		return nil, err
	}
	red := &Reduction{Legal: big.NewInt(1)}
	// Allocate a bit block per original variable.
	numer := make([]*big.Int, d.NumVars)
	denom := make([]*big.Int, d.NumVars)
	red.Blocks = make([]prop.BitBlock, d.NumVars)
	next := 0
	for v := 0; v < d.NumVars; v++ {
		pv := p[v] // already reduced: big.Rat normalizes
		numer[v] = new(big.Int).Set(pv.Num())
		denom[v] = new(big.Int).Set(pv.Denom())
		// ℓ = ⌈log₂ q⌉ bits suffice to represent the legal values
		// 0..q−1; for dyadic q = 2^ℓ this leaves no illegal assignments
		// (the paper's "we are done" case). q = 1 yields an empty block:
		// the variable is a constant.
		ell := new(big.Int).Sub(denom[v], big.NewInt(1)).BitLen()
		red.Blocks[v] = prop.NewBitBlock(next, ell)
		next += ell
		red.Legal.Mul(red.Legal, denom[v])
	}
	red.Bits = next

	// φ': substitute the comparison DNFs into each term and distribute.
	var phiPrime []prop.Term
	for _, t := range d.Terms {
		nt, sat := t.Normalize()
		if !sat {
			continue
		}
		expanded := []prop.Term{{}}
		for _, l := range nt {
			blk := red.Blocks[l.Var]
			var sub []prop.Term
			var err error
			if l.Neg {
				sub, err = blk.GreaterEqTerms(numer[l.Var])
			} else {
				sub, err = blk.LessTerms(numer[l.Var])
			}
			if err != nil {
				return nil, err
			}
			var nextTerms []prop.Term
			for _, acc := range expanded {
				for _, s := range sub {
					product := append(acc.Clone(), s...)
					if np, ok := product.Normalize(); ok {
						nextTerms = append(nextTerms, np)
					}
					if len(nextTerms) > MaxReductionTerms {
						return nil, fmt.Errorf("%w: Theorem 5.3 distribution exceeds %d terms", prop.ErrBudget, MaxReductionTerms)
					}
				}
			}
			expanded = nextTerms
		}
		phiPrime = append(phiPrime, expanded...)
		if len(phiPrime) > MaxReductionTerms {
			return nil, fmt.Errorf("%w: Theorem 5.3 reduction exceeds %d terms", prop.ErrBudget, MaxReductionTerms)
		}
	}

	// φ'' = φ' ∨ ⋁_X "val(Ȳ_X) ≥ q_X" — the illegal assignments are all
	// satisfying, so the count of φ'' splits cleanly.
	terms := phiPrime
	for v := 0; v < d.NumVars; v++ {
		ge, err := red.Blocks[v].GreaterEqTerms(denom[v])
		if err != nil {
			return nil, err
		}
		terms = append(terms, ge...)
	}
	red.PhiPP = prop.DNF{NumVars: red.Bits, Terms: terms}.Simplify()
	return red, nil
}

// ProbViaReduction runs the full Theorem 5.3 pipeline: Reduce, estimate
// #φ” with the Karp–Luby #DNF FPTRAS (kernel k over stream s, see
// CountDNF), and recover ν(φ). This is the paper's own FPTRAS for
// Prob-kDNF.
func ProbViaReduction(ctx context.Context, d prop.DNF, p prop.ProbAssignment, eps, delta float64, k CountKernel, s mc.Stream) (CountResult, error) {
	pl, err := PlanViaReduction(d, p, eps, delta, k)
	if err != nil {
		return CountResult{}, err
	}
	return pl.Run(ctx, s)
}
