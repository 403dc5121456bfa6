package karpluby

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"qrel/internal/prop"
)

func TestReduceDyadic(t *testing.T) {
	// Probabilities with power-of-two denominators: no illegal
	// assignments, ν(φ) = #φ'' / 2^bits.
	d := prop.MustDNF(2, prop.Term{prop.Pos(0), prop.Negd(1)})
	p := prop.ProbAssignment{big.NewRat(3, 4), big.NewRat(1, 2)}
	red, err := Reduce(d, p)
	if err != nil {
		t.Fatal(err)
	}
	if red.Illegal().Sign() != 0 {
		t.Errorf("dyadic reduction has %v illegal assignments", red.Illegal())
	}
	count, err := red.PhiPP.CountBruteForce(12)
	if err != nil {
		t.Fatal(err)
	}
	got := red.Recover(new(big.Rat).SetInt(count))
	want, _ := d.ProbBruteForce(p, 12)
	if got.Cmp(want) != 0 {
		t.Errorf("recovered %v, want %v", got, want)
	}
}

func TestReduceNonDyadicExact(t *testing.T) {
	// The heart of Theorem 5.3: non-power-of-two denominators, legal /
	// illegal accounting. Cross-check against direct brute force.
	rng := rand.New(rand.NewSource(5))
	denoms := []int64{2, 3, 4, 5, 6, 7}
	for iter := 0; iter < 40; iter++ {
		nv := 2 + rng.Intn(3)
		d := randDNF(rng, nv, 1+rng.Intn(4), 2)
		p := make(prop.ProbAssignment, nv)
		for i := range p {
			q := denoms[rng.Intn(len(denoms))]
			p[i] = big.NewRat(rng.Int63n(q+1), q)
		}
		got, err := probExactViaReduction(d, p, 24)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		want, err := d.ProbBruteForce(p, 12)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("iter %d: reduction gives %v, brute force %v (probs %v, dnf %v)",
				iter, got, want, p, d)
		}
	}
}

func TestReduceExtremeProbabilities(t *testing.T) {
	// ν ∈ {0, 1} must behave like constants.
	d := prop.MustDNF(2, prop.Term{prop.Pos(0)}, prop.Term{prop.Pos(1)})
	cases := []struct {
		p    prop.ProbAssignment
		want *big.Rat
	}{
		{prop.ProbAssignment{big.NewRat(1, 1), big.NewRat(0, 1)}, big.NewRat(1, 1)},
		{prop.ProbAssignment{big.NewRat(0, 1), big.NewRat(0, 1)}, new(big.Rat)},
		{prop.ProbAssignment{big.NewRat(0, 1), big.NewRat(1, 3)}, big.NewRat(1, 3)},
	}
	for i, c := range cases {
		got, err := probExactViaReduction(d, c.p, 24)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Cmp(c.want) != 0 {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
	}
}

func TestReduceLegalCount(t *testing.T) {
	d := prop.MustDNF(3, prop.Term{prop.Pos(0), prop.Pos(1), prop.Pos(2)})
	p := prop.ProbAssignment{big.NewRat(1, 3), big.NewRat(2, 5), big.NewRat(1, 2)}
	red, err := Reduce(d, p)
	if err != nil {
		t.Fatal(err)
	}
	if red.Legal.Int64() != 3*5*2 {
		t.Errorf("Legal = %v, want 30", red.Legal)
	}
	// Bits: ⌈log₂3⌉=2, ⌈log₂5⌉=3, ⌈log₂2⌉=1.
	if red.Bits != 6 {
		t.Errorf("Bits = %d, want 6", red.Bits)
	}
	if got := red.Illegal().Int64(); got != 64-30 {
		t.Errorf("Illegal = %v, want 34", got)
	}
}

func TestReducePolynomialBlowup(t *testing.T) {
	// For fixed width k, the size of φ'' must grow polynomially in the
	// probability bit-length (the paper: exponential in k only).
	d := prop.MustDNF(2, prop.Term{prop.Pos(0), prop.Negd(1)})
	var prevTerms int
	for _, q := range []int64{3, 13, 211, 3001, 65521} {
		p := prop.ProbAssignment{big.NewRat(1, q), big.NewRat(2, q)}
		red, err := Reduce(d, p)
		if err != nil {
			t.Fatal(err)
		}
		terms := len(red.PhiPP.Terms)
		ell := big.NewInt(q).BitLen()
		// ℓ² per substituted pair plus 2·ℓ illegal terms is a generous
		// quadratic cap.
		if terms > 2*ell*ell+4*ell {
			t.Errorf("q=%d: %d terms exceeds quadratic cap (ell=%d)", q, terms, ell)
		}
		if terms < prevTerms {
			// Not strictly monotone in theory, but must grow overall.
			t.Logf("q=%d: terms %d < previous %d", q, terms, prevTerms)
		}
		prevTerms = terms
	}
}

func TestProbViaReductionAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const eps, delta = 0.15, 0.05
	failures, instances := 0, 20
	for iter := 0; iter < instances; iter++ {
		nv := 2 + rng.Intn(2)
		d := randDNF(rng, nv, 1+rng.Intn(3), 2)
		p := make(prop.ProbAssignment, nv)
		for i := range p {
			p[i] = big.NewRat(int64(1+rng.Intn(4)), 5)
		}
		exact, err := d.ProbBruteForce(p, 12)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ProbViaReduction(bg, d, p, eps, delta, CountBatched, seeded(6000+int64(iter)))
		if err != nil {
			t.Fatal(err)
		}
		if exact.Sign() == 0 {
			continue
		}
		// The #φ'' estimate has relative error ε, but after subtracting
		// the illegal count the guarantee on ν(φ) weakens when the legal
		// fraction is small; accept 4ε here (E5 quantifies this).
		diff := new(big.Rat).Sub(got.Estimate, exact)
		diff.Quo(diff, exact)
		if f, _ := diff.Float64(); math.Abs(f) > 4*eps {
			failures++
		}
	}
	if failures > 4 {
		t.Errorf("%d of %d instances badly off", failures, instances)
	}
}

func TestReduceValidation(t *testing.T) {
	d := prop.MustDNF(1, prop.Term{prop.Pos(0)})
	if _, err := Reduce(d, prop.ProbAssignment{}); err == nil {
		t.Error("missing probabilities accepted")
	}
	if _, err := Reduce(d, prop.ProbAssignment{big.NewRat(5, 4)}); err == nil {
		t.Error("probability > 1 accepted")
	}
}

// probExactViaReduction runs the Theorem 5.3 reduction and counts φ”
// exactly by brute force, validating the reduction itself.
func probExactViaReduction(d prop.DNF, p prop.ProbAssignment, maxVars int) (*big.Rat, error) {
	red, err := Reduce(d, p)
	if err != nil {
		return nil, err
	}
	count, err := red.PhiPP.CountBruteForce(maxVars)
	if err != nil {
		return nil, err
	}
	return red.Recover(new(big.Rat).SetInt(count)), nil
}
