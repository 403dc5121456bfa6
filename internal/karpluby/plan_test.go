package karpluby

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"qrel/internal/bdd"
	"qrel/internal/mc"
	"qrel/internal/prop"
)

// coverage returns the exact coverage μ = Pr[⋁Tᵢ] / Σ Pr[Tᵢ] of d's
// satisfiable terms under p, or nil when Σ Pr[Tᵢ] = 0.
func coverage(t *testing.T, d prop.DNF, p prop.ProbAssignment) *big.Rat {
	t.Helper()
	mgr := bdd.New(d.NumVars, 0)
	root, err := mgr.FromDNF(d)
	if err != nil {
		t.Fatal(err)
	}
	union, err := mgr.Prob(root, p)
	if err != nil {
		t.Fatal(err)
	}
	w := new(big.Rat)
	for _, tm := range normalizedTerms(d) {
		w.Add(w, p.TermProb(tm))
	}
	if w.Sign() == 0 {
		return nil
	}
	return union.Quo(union, w)
}

// checkCoverageBound holds the planner to its one forbidden outcome, a
// bound above the true coverage μ, and to its cap: the planned t never
// exceeds Lemma 5.11's worst case (its p is at least 1/m).
func checkCoverageBound(t *testing.T, d prop.DNF, p prop.ProbAssignment) {
	t.Helper()
	norm := normalizedTerms(d)
	if len(norm) == 0 {
		return
	}
	lit := literalProbs(p, d.NumVars, norm)
	bound := coverageBound(norm, lit, math.MaxInt)
	if math.IsNaN(bound) || math.IsInf(bound, 0) {
		t.Fatalf("bound %v on %v", bound, d.Terms)
	}
	if mu := coverage(t, d, p); mu != nil && new(big.Rat).SetFloat64(max(bound, 0)).Cmp(mu) > 0 {
		muF, _ := mu.Float64()
		t.Fatalf("coverage bound %v above the coverage %v (%v) of %v under %v", bound, muF, mu, d.Terms, p)
	}
	planned, err := planSamples(0.1, 0.05, norm, lit)
	if err != nil {
		t.Fatal(err)
	}
	if worst, _ := SampleSize(0.1, 0.05, len(norm)); planned < 1 || planned > worst {
		t.Fatalf("planned %d samples, worst case %d", planned, worst)
	}
}

// hostileProbs are literal probabilities the bound must survive:
// certain and impossible atoms, coprime and Mersenne-prime denominators,
// and values small enough that a wide term underflows a float64.
var hostileProbs = []*big.Rat{
	big.NewRat(0, 1), big.NewRat(1, 1), big.NewRat(1, 2), big.NewRat(1, 3), big.NewRat(2, 7),
	big.NewRat(5, 11), big.NewRat(12, 13),
	big.NewRat(1, 1<<61-1), big.NewRat(1<<61-2, 1<<61-1),
	new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 70)),
}

func hostile(rng *rand.Rand, n int) prop.ProbAssignment {
	p := make(prop.ProbAssignment, n)
	for v := range p {
		p[v] = hostileProbs[rng.Intn(len(hostileProbs))]
	}
	return p
}

func TestCoverageBoundIsBelowCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for iter := 0; iter < 400; iter++ {
		nv := 1 + rng.Intn(16)
		d := randDNF(rng, nv, 1+rng.Intn(20), 1+rng.Intn(5))
		checkCoverageBound(t, d, randProbs(rng, nv))
		checkCoverageBound(t, d, hostile(rng, nv))
		checkCoverageBound(t, d, prop.UniformProb(nv))
	}
	x := func(v int) prop.Lit { return prop.Pos(v) }
	nx := func(v int) prop.Lit { return prop.Negd(v) }
	wide := make(prop.Term, 16)
	for v := range wide {
		wide[v] = x(v)
	}
	// Duplicates, contradictions, width-0 terms, one term, variable-disjoint,
	// nested and wide (underflowing under the tiny probabilities) terms.
	for _, terms := range [][]prop.Term{
		{{x(0), x(1)}, {x(1), x(0)}, {x(0), x(1)}, {x(2)}},
		{{x(0)}, {nx(0)}, {x(1), nx(1)}, {x(0), nx(2)}, {nx(0), x(2)}},
		{{}, {x(0)}, {x(1), x(2)}},
		{{}, {}},
		{{x(3), nx(4)}},
		{{x(0), x(1)}, {x(2), x(3)}, {x(4), x(5)}, {x(6), x(7)}},
		{{x(0)}, {x(0), x(1)}, {x(0), x(1), x(2)}, {x(0), x(1), x(2), x(3)}},
		{wide, wide[:15], wide[1:], {x(0)}},
	} {
		d := prop.DNF{NumVars: 16, Terms: terms}
		checkCoverageBound(t, d, prop.UniformProb(16))
		for seed := int64(0); seed < 40; seed++ {
			checkCoverageBound(t, d, hostile(rand.New(rand.NewSource(seed)), 16))
		}
		tiny := make(prop.ProbAssignment, 16)
		for v := range tiny {
			tiny[v] = hostileProbs[len(hostileProbs)-1]
		}
		checkCoverageBound(t, d, tiny)
	}
	// Planning that costs more than the draws it could save is not tried.
	d := randDNF(rand.New(rand.NewSource(5)), 4, 30, 3)
	norm := normalizedTerms(d)
	if got := coverageBound(norm, literalProbs(prop.UniformProb(4), 4, norm), 10); got != 0 {
		t.Errorf("bound %v past the planning budget, want 0", got)
	}
}

// FuzzCoverageBound: the bound stays below the exact coverage on DNFs
// and literal probabilities read from fuzz bytes.
func FuzzCoverageBound(f *testing.F) {
	f.Add([]byte{3, 0x11, 0x22, 0x00, 0x23, 0x45, 0x00})
	f.Add([]byte{7, 0x01, 0x81, 0x00, 0x82, 0x00, 0x00, 0x99})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nv := 1 + int(data[0]%8)
		p := make(prop.ProbAssignment, nv)
		for v := range p {
			p[v] = hostileProbs[int(data[(1+v)%len(data)])%len(hostileProbs)]
		}
		// Each byte is a literal — low 3 bits the variable, bit 7 the
		// sign — and a zero byte ends the term.
		d := prop.DNF{NumVars: nv}
		var tm prop.Term
		for _, b := range data[1:] {
			if b == 0 || len(tm) == 8 {
				d.Terms = append(d.Terms, tm)
				tm = nil
				if len(d.Terms) == 12 {
					break
				}
				continue
			}
			tm = append(tm, prop.Lit{Var: int(b&7) % nv, Neg: b&0x80 != 0})
		}
		d.Terms = append(d.Terms, tm)
		checkCoverageBound(t, d, p)
	})
}

// TestPlannedRunsMissAtMostDelta: over 2 000 seeded runs at ε = 0.2,
// δ = 0.1 — half ProbDNF, half CountDNF — the planned t misses the
// relative error ε no more often than the contract allows: δ·N plus
// three binomial standard deviations.
func TestPlannedRunsMissAtMostDelta(t *testing.T) {
	const eps, delta, instances, seeds = 0.2, 0.1, 20, 50
	rng := rand.New(rand.NewSource(67))
	misses, runs := 0, 0
	for i := 0; i < instances; i++ {
		nv := 4 + rng.Intn(8)
		d := randDNF(rng, nv, 2+rng.Intn(10), 3)
		p := randProbs(rng, nv)
		uniform := prop.UniformProb(nv)
		for _, weighted := range []bool{true, false} {
			q := uniform
			if weighted {
				q = p
			}
			exact, err := d.ProbBruteForce(q, 12)
			if err != nil {
				t.Fatal(err)
			}
			if !weighted {
				// CountDNF estimates the count 2ⁿ·Pr.
				exact.Mul(exact, new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(nv))))
			}
			for s := int64(0); s < seeds; s++ {
				var res CountResult
				if weighted {
					res, err = ProbDNF(bg, d, q, eps, delta, ProbBatched, seeded(s))
				} else {
					res, err = CountDNF(bg, d, eps, delta, CountBatched, seeded(s))
				}
				if err != nil {
					t.Fatal(err)
				}
				runs++
				if exact.Sign() == 0 {
					continue
				}
				rel := new(big.Rat).Sub(res.Estimate, exact)
				if f, _ := rel.Quo(rel, exact).Float64(); math.Abs(f) > eps {
					misses++
				}
			}
		}
	}
	n := float64(runs)
	if allowed := delta*n + 3*math.Sqrt(n*delta*(1-delta)); float64(misses) > allowed {
		t.Errorf("%d of %d runs missed ε = %v; at most %.0f allowed", misses, runs, eps, allowed)
	}
	t.Logf("%d of %d runs missed ε = %v", misses, runs, eps)
}

// TestPlanDrawsNothingWhenUnsatisfiable: a DNF with no satisfiable term
// plans zero samples and estimates 0 without touching the stream.
func TestPlanDrawsNothingWhenUnsatisfiable(t *testing.T) {
	pl, err := PlanCount(prop.MustDNF(2, prop.Term{prop.Pos(0), prop.Negd(0)}), 0.1, 0.1, CountScalar)
	if err != nil || pl.Samples != 0 {
		t.Fatalf("plan %+v, %v", pl, err)
	}
	res, err := pl.Run(bg, mc.Stream{Seed: 1, Workers: 2})
	if err != nil || res.Estimate.Sign() != 0 || res.Samples != 0 {
		t.Fatalf("run %+v, %v", res, err)
	}
}
