// Package sharpp implements the counting machinery of Section 4: the
// nondeterministic path-counting oracle of Theorem 4.2 (a #P-function
// whose accepting-path count encodes g·Pr[B ⊨ psi]) and the arithmetic
// skeleton of the Regan–Schwentick padding (Theorem 4.1) that lets a
// single bit of a #P-function carry the answer of an arbitrary
// PH-query, with "junk" bits provably unable to interfere.
//
// The package simulates the nondeterministic machine by exhaustive
// weighted world enumeration — the deterministic cost of evaluating a
// #P oracle, which is exactly the exponential blow-up the theorem hides
// inside the oracle call.
package sharpp

import (
	"fmt"
	"math/big"
	"math/rand"

	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// Oracle is the result of simulating the Theorem 4.2 counting machine.
type Oracle struct {
	// Accepting is the number of accepting computation paths:
	// Σ_B nu(B)·g·accept(B).
	Accepting *big.Int
	// G is the normalizer: every world contributes nu(B)·g ∈ ℕ paths.
	G *big.Int
	// Worlds is the number of enumerated worlds.
	Worlds int
}

// Prob returns Pr[accept] = Accepting / G.
func (o Oracle) Prob() *big.Rat {
	return new(big.Rat).SetFrac(o.Accepting, o.G)
}

// CountAcceptingPaths simulates the machine M from the proof of Theorem
// 4.2 for a polynomial-time evaluable query: it guesses the truth
// values of all uncertain atoms (one world B per leaf), splits each
// leaf nu(B)·g times, and accepts where accept(B) holds. The returned
// count divided by g is exactly Pr[B ⊨ psi]. budget caps the number of
// uncertain atoms (2^u worlds are enumerated).
func CountAcceptingPaths(db *unreliable.DB, accept func(*rel.Structure) (bool, error), budget int) (Oracle, error) {
	g := db.G()
	total := new(big.Int)
	worlds := 0
	var evalErr error
	err := db.ForEachWorld(budget, func(b *rel.Structure, nu *big.Rat) bool {
		worlds++
		ok, err := accept(b)
		if err != nil {
			evalErr = err
			return false
		}
		if !ok {
			return true
		}
		// nu(B)·g is integral by the choice of g.
		leaf := new(big.Rat).Mul(nu, new(big.Rat).SetInt(g))
		if !leaf.IsInt() {
			evalErr = fmt.Errorf("sharpp: nu(B)·g = %v not integral; g computation broken", leaf)
			return false
		}
		total.Add(total, leaf.Num())
		return true
	})
	if err != nil {
		return Oracle{}, err
	}
	if evalErr != nil {
		return Oracle{}, evalErr
	}
	return Oracle{Accepting: total, G: g, Worlds: worlds}, nil
}

// Padding carries the parameters of the Regan–Schwentick encoding: each
// leaf contributes a number whose binary representation is
//
//	y 0^Q b 0^Q z   with |z| = T,
//
// i.e. y·2^(2Q+T+1) + b·2^(Q+T) + z. Summing at most 2^Q such numbers
// keeps the sum of the b bits visible in the bit window
// [Q+T, 2Q+T] of the total: the z parts sum to < 2^(Q+T) and cannot
// carry into the window, and the window's capacity 2^(Q+1) exceeds the
// number of summands.
type Padding struct {
	Q int // zero-run length; at most 2^Q numbers may be summed
	T int // junk suffix width
}

// Encode returns y·2^(2Q+T+1) + b·2^(Q+T) + z, validating z < 2^T and
// y, z ≥ 0.
func (p Padding) Encode(y *big.Int, b bool, z *big.Int) (*big.Int, error) {
	if p.Q < 0 || p.T < 0 {
		return nil, fmt.Errorf("sharpp: invalid padding %+v", p)
	}
	if z.Sign() < 0 || z.BitLen() > p.T {
		return nil, fmt.Errorf("sharpp: junk suffix %v does not fit in %d bits", z, p.T)
	}
	if y.Sign() < 0 {
		return nil, fmt.Errorf("sharpp: negative junk prefix %v", y)
	}
	v := new(big.Int).Lsh(y, uint(2*p.Q+p.T+1))
	if b {
		bit := new(big.Int).Lsh(big.NewInt(1), uint(p.Q+p.T))
		v.Add(v, bit)
	}
	return v.Add(v, z), nil
}

// ExtractSum recovers Σ b_i from the sum of at most 2^Q encoded numbers:
// the bit window [Q+T, 2Q+T] of the total.
func (p Padding) ExtractSum(total *big.Int) *big.Int {
	window := new(big.Int).Rsh(total, uint(p.Q+p.T))
	mask := new(big.Int).Lsh(big.NewInt(1), uint(p.Q+1))
	mask.Sub(mask, big.NewInt(1))
	return window.And(window, mask)
}

// PaddedOracle is the result of the padded simulation.
type PaddedOracle struct {
	Oracle
	// Total is the raw padded #P-count, junk included.
	Total *big.Int
	// Padding is the encoding geometry used.
	Padding Padding
}

// CountViaPadding simulates the general (PH-query) branch of the proof
// of Theorem 4.2: each leaf runs the Regan–Schwentick machine whose
// accepting-path count has the padded form with the query answer as the
// distinguished bit, and adversarial junk y, z drawn from junkRng. The
// sum of the relevant bits — recovered by ExtractSum — equals
// g·Pr[B ⊨ psi] no matter the junk. budget caps the uncertain atoms.
func CountViaPadding(db *unreliable.DB, accept func(*rel.Structure) (bool, error), junkRng *rand.Rand, budget int) (PaddedOracle, error) {
	g := db.G()
	// Fewer than 2^Q leaves are summed: the machine has g leaves total.
	pad := Padding{Q: g.BitLen() + 1, T: 16}
	total := new(big.Int)
	worlds := 0
	var evalErr error
	err := db.ForEachWorld(budget, func(b *rel.Structure, nu *big.Rat) bool {
		worlds++
		ok, err := accept(b)
		if err != nil {
			evalErr = err
			return false
		}
		leaves := new(big.Rat).Mul(nu, new(big.Rat).SetInt(g))
		if !leaves.IsInt() {
			evalErr = fmt.Errorf("sharpp: nu(B)·g = %v not integral", leaves)
			return false
		}
		// Each of the nu(B)·g leaves contributes one padded number with
		// its own junk; we draw one junk pair per world and multiply,
		// which is a sum of identical leaves (still < 2^Q total).
		y := new(big.Int).Rand(junkRng, big.NewInt(1<<20))
		z := new(big.Int).Rand(junkRng, new(big.Int).Lsh(big.NewInt(1), uint(pad.T)))
		enc, err := pad.Encode(y, ok, z)
		if err != nil {
			evalErr = err
			return false
		}
		total.Add(total, enc.Mul(enc, leaves.Num()))
		return true
	})
	if err != nil {
		return PaddedOracle{}, err
	}
	if evalErr != nil {
		return PaddedOracle{}, evalErr
	}
	accepting := pad.ExtractSum(total)
	return PaddedOracle{
		Oracle:  Oracle{Accepting: accepting, G: g, Worlds: worlds},
		Total:   total,
		Padding: pad,
	}, nil
}

// expectedError computes H_psi(D) for a Boolean query from the oracle
// count: Pr[psi^B ≠ psi^A], i.e. 1 − Pr[psi] when A ⊨ psi and Pr[psi]
// otherwise (the FP part of the FP^#P algorithm).
func expectedError(o Oracle, observed bool) *big.Rat {
	p := o.Prob()
	if observed {
		return p.Sub(big.NewRat(1, 1), p)
	}
	return p
}
