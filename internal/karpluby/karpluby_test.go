package karpluby

import (
	"context"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"qrel/internal/mc"
	"qrel/internal/prop"
)

var bg = context.Background()

// seeded is the lane split of seed on the calling goroutine.
func seeded(seed int64) mc.Stream { return mc.Stream{Seed: seed} }

func randDNF(rng *rand.Rand, numVars, numTerms, width int) prop.DNF {
	d := prop.DNF{NumVars: numVars}
	for i := 0; i < numTerms; i++ {
		w := 1 + rng.Intn(width)
		t := make(prop.Term, 0, w)
		for j := 0; j < w; j++ {
			t = append(t, prop.Lit{Var: rng.Intn(numVars), Neg: rng.Intn(2) == 0})
		}
		d.Terms = append(d.Terms, t)
	}
	return d
}

func TestSampleSize(t *testing.T) {
	n, err := SampleSize(0.1, 0.05, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := int(math.Ceil(4.5 * 10 * math.Log(2/0.05) / 0.01))
	if n != want {
		t.Errorf("SampleSize = %d, want %d", n, want)
	}
	for _, bad := range [][2]float64{{0, 0.1}, {-1, 0.1}, {0.1, 0}, {0.1, 1}} {
		if _, err := SampleSize(bad[0], bad[1], 10); err == nil {
			t.Errorf("SampleSize(%v) accepted", bad)
		}
	}
	if _, err := SampleSize(0.1, 0.1, 0); err == nil {
		t.Error("zero terms accepted")
	}
	if _, err := SampleSize(1e-9, 1e-9, 1000); err == nil {
		t.Error("absurd sample size accepted")
	}
}

// lemma511Bound is the right-hand side of Lemma 5.11:
// 2·exp(−2ε²tp / 9(1−p)), the failure probability of a t-sample mean of
// [0,1] variables with expectation p < 0.5 exceeding relative error ε —
// the bound SampleSize and mc.PaperSampleSize are solved from.
func lemma511Bound(eps float64, t int, p float64) float64 {
	if p <= 0 || p >= 1 {
		return 1
	}
	return 2 * math.Exp(-2*eps*eps*float64(t)*p/(9*(1-p)))
}

func TestLemma511Bound(t *testing.T) {
	// Bound decreases in t and is ≤ 2.
	b1 := lemma511Bound(0.1, 100, 0.3)
	b2 := lemma511Bound(0.1, 1000, 0.3)
	if b2 >= b1 {
		t.Error("bound not decreasing in t")
	}
	if lemma511Bound(0.1, 10, 0) != 1 || lemma511Bound(0.1, 10, 1) != 1 {
		t.Error("degenerate p should clamp to 1")
	}
	// For the paper's t(ε,δ) with ξ = p, the bound is below δ.
	xi, eps, delta := 0.25, 0.1, 0.05
	tt := int(math.Ceil(9 / (2 * xi * eps * eps) * math.Log(1/delta)))
	if got := lemma511Bound(eps, tt, xi); got >= 2*delta {
		t.Errorf("bound %v at paper sample size, want < 2δ = %v", got, 2*delta)
	}
}

func TestRandBigBelow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := big.NewInt(10)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		v := randBigBelowScratch(rng, n, &bigScratch{})
		if v.Sign() < 0 || v.Cmp(n) >= 0 {
			t.Fatalf("sample %v outside [0,10)", v)
		}
		counts[v.Int64()]++
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("value %d drawn %d times of 10000; expected ≈1000", i, c)
		}
	}
	if randBigBelowScratch(rng, new(big.Int), &bigScratch{}).Sign() != 0 {
		t.Error("randBigBelowScratch(0) should be 0")
	}
}

func TestCountDNFAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const eps, delta = 0.1, 0.02
	failures := 0
	const instances = 30
	for iter := 0; iter < instances; iter++ {
		nv := 6 + rng.Intn(6)
		d := randDNF(rng, nv, 2+rng.Intn(8), 3)
		exact, err := d.CountBruteForce(12)
		if err != nil {
			t.Fatal(err)
		}
		// Each instance draws its own seed: the failure bound below
		// assumes independent trials.
		got, err := CountDNF(bg, d, eps, delta, CountBatched, seeded(2000+int64(iter)))
		if err != nil {
			t.Fatal(err)
		}
		if exact.Sign() == 0 {
			if got.Estimate.Sign() != 0 {
				t.Errorf("iter %d: estimate %v for unsatisfiable formula", iter, got.Estimate)
			}
			continue
		}
		relErr := new(big.Rat).Sub(got.Estimate, new(big.Rat).SetInt(exact))
		relErr.Quo(relErr, new(big.Rat).SetInt(exact))
		if f, _ := relErr.Float64(); math.Abs(f) > eps {
			failures++
		}
	}
	// δ = 2% per instance; over 30 instances expect ~0–1 failures. Allow 3.
	if failures > 3 {
		t.Errorf("%d of %d instances exceeded relative error %v", failures, instances, eps)
	}
}

func TestCountDNFEdgeCases(t *testing.T) {
	s := seeded(3)
	// Empty DNF: count 0.
	res, err := CountDNF(bg, prop.DNF{NumVars: 5}, 0.1, 0.1, CountScalar, s)
	if err != nil || res.Estimate.Sign() != 0 {
		t.Errorf("empty DNF: %v, %v", res.Estimate, err)
	}
	// All terms contradictory.
	d := prop.MustDNF(3, prop.Term{prop.Pos(0), prop.Negd(0)})
	res, err = CountDNF(bg, d, 0.1, 0.1, CountScalar, s)
	if err != nil || res.Estimate.Sign() != 0 {
		t.Errorf("contradictory DNF: %v, %v", res.Estimate, err)
	}
	// Tautology: exactly 2^n, zero variance (every sample hits term 0).
	d = prop.MustDNF(4, prop.Term{})
	res, err = CountDNF(bg, d, 0.5, 0.1, CountScalar, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.Cmp(big.NewRat(16, 1)) != 0 {
		t.Errorf("tautology estimate %v, want 16", res.Estimate)
	}
}

func TestProbDNFAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const eps, delta = 0.1, 0.02
	failures := 0
	const instances = 30
	for iter := 0; iter < instances; iter++ {
		nv := 5 + rng.Intn(5)
		d := randDNF(rng, nv, 2+rng.Intn(6), 3)
		p := make(prop.ProbAssignment, nv)
		for i := range p {
			p[i] = big.NewRat(int64(1+rng.Intn(9)), 10)
		}
		exact, err := d.ProbBruteForce(p, 12)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ProbDNF(bg, d, p, eps, delta, ProbBatched, seeded(4000+int64(iter)))
		if err != nil {
			t.Fatal(err)
		}
		if exact.Sign() == 0 {
			continue
		}
		relErr := new(big.Rat).Sub(got.Estimate, exact)
		relErr.Quo(relErr, exact)
		if f, _ := relErr.Float64(); math.Abs(f) > eps {
			failures++
		}
	}
	if failures > 3 {
		t.Errorf("%d of %d instances exceeded relative error %v", failures, instances, eps)
	}
}

func TestProbDNFValidation(t *testing.T) {
	d := prop.MustDNF(2, prop.Term{prop.Pos(0)})
	if _, err := ProbDNF(bg, d, prop.ProbAssignment{big.NewRat(1, 2)}, 0.1, 0.1, ProbScalar, seeded(1)); err == nil {
		t.Error("short probability assignment accepted")
	}
}

func TestCountResultFloat(t *testing.T) {
	r := CountResult{Estimate: big.NewRat(3, 2)}
	if r.Float() != 1.5 {
		t.Errorf("Float = %v", r.Float())
	}
}

// TestCountDNFPlanSavesWhenCoverageHigh: on E10's near-disjoint DNF
// the coverage is ≈ 0.32, and the planned t is a fraction of Lemma
// 5.11's worst case at 1/m; both runs stay within ε.
func TestCountDNFPlanSavesWhenCoverageHigh(t *testing.T) {
	nv, m := 24, 12
	d := prop.DNF{NumVars: nv}
	for i := 0; i < m; i++ {
		d.Terms = append(d.Terms, prop.Term{prop.Pos(2 * i), prop.Pos(2*i + 1)})
	}
	planned, err := PlanCount(d, 0.1, 0.05, CountBatched)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := SampleSize(0.1, 0.05, m)
	if err != nil {
		t.Fatal(err)
	}
	if planned.Samples*3 > worst {
		t.Errorf("planned %d samples, worst case %d; expected a ≥ 3× saving", planned.Samples, worst)
	}
	// A pair fails in 3 of its 4 assignments: 2²⁴ − 3¹² models.
	exact := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 24), new(big.Int).Exp(big.NewInt(3), big.NewInt(12), nil))
	for _, n := range []int{planned.Samples, worst} {
		pl := planned
		pl.Samples = n
		res, err := pl.Run(bg, seeded(8))
		if err != nil {
			t.Fatal(err)
		}
		diff := new(big.Rat).Sub(res.Estimate, new(big.Rat).SetInt(exact))
		diff.Quo(diff, new(big.Rat).SetInt(exact))
		if f, _ := diff.Float64(); math.Abs(f) > 0.1 {
			t.Errorf("%d samples: estimate off by %v", n, f)
		}
	}
}
