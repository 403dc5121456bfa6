// Package karpluby implements the Karp–Luby Monte Carlo algorithms the
// paper builds on: the FPTRAS for #DNF (Theorem 5.2, from Karp & Luby,
// FOCS 1983), its weighted variant for Prob-DNF, and the paper's own
// reduction from Prob-kDNF to #DNF via binary-encoded probabilities
// (Theorem 5.3). Sample sizes follow Lemma 5.11 at a coverage lower
// bound proved from the DNF before the first draw (plan.go).
package karpluby

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"

	"qrel/internal/mc"
	"qrel/internal/prop"
)

// SampleSize returns the number of iterations t for which the Karp–Luby
// zero-one estimator achieves relative error ε with confidence 1 − δ,
// given the coverage lower bound p ≥ 1/m for a DNF with m terms: by
// Lemma 5.11, 2·exp(−2ε²tp / 9(1−p)) < δ as soon as
// t ≥ (9/2)·(1/p)·ln(2/δ)/ε². This is the worst case p = 1/m — the
// paper's bound, and the cap on every planned t (planSamples).
func SampleSize(eps, delta float64, m int) (int, error) {
	if eps <= 0 || delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("karpluby: need eps > 0 and 0 < delta < 1, got eps=%v delta=%v", eps, delta)
	}
	if m <= 0 {
		return 0, fmt.Errorf("karpluby: DNF with %d terms", m)
	}
	t := 4.5 * float64(m) * math.Log(2/delta) / (eps * eps)
	if t > 1e9 {
		return 0, fmt.Errorf("karpluby: sample size %.3g exceeds 1e9; relax eps/delta", t)
	}
	return int(math.Ceil(t)), nil
}

// bigScratch holds the reusable buffers of randBigBelowScratch so the
// per-iteration term draw of the counting loop allocates nothing.
type bigScratch struct {
	buf []byte
	v   *big.Int
}

// randBigBelowScratch draws a uniform big.Int in [0, n), reusing the
// scratch buffers; the result aliases sc.v and is valid until the next
// call.
func randBigBelowScratch(rng *rand.Rand, n *big.Int, sc *bigScratch) *big.Int {
	if sc.v == nil {
		sc.v = new(big.Int)
	}
	if n.Sign() <= 0 {
		return sc.v.SetInt64(0)
	}
	// Rejection sampling over the enclosing power of two.
	bits := n.BitLen()
	nb := (bits + 7) / 8
	if cap(sc.buf) < nb {
		sc.buf = make([]byte, nb)
	}
	buf := sc.buf[:nb]
	mask := byte(0xff >> (uint(nb*8 - bits)))
	v := sc.v
	for {
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		buf[0] &= mask
		v.SetBytes(buf)
		if v.Cmp(n) < 0 {
			return v
		}
	}
}

// CountResult reports a Karp–Luby estimate.
type CountResult struct {
	// Estimate is the estimated count (for CountDNF) or probability (for
	// ProbDNF).
	Estimate *big.Rat
	// Samples is the number of Monte Carlo iterations performed.
	Samples int
	// Hits is the number of iterations whose zero-one variable was 1.
	Hits int
}

// Float returns the estimate as a float64.
func (r CountResult) Float() float64 {
	f, _ := r.Estimate.Float64()
	return f
}

// klMethod tags Karp–Luby snapshots; restoring a snapshot taken by a
// different estimator is rejected.
const klMethod = "karp-luby"

// countTable is a #DNF instance prepared for sampling: the satisfiable
// normalized terms and their satisfying-assignment counts as
// cumulative sums.
type countTable struct {
	norm    []prop.Term
	numVars int
	cum     []*big.Int
	total   *big.Int
}

// A CountKernel builds the per-lane iteration of CountDNF over a
// prepared instance: CountScalar or CountBatched. The two draw the
// same stream and count the same hits; the choice is throughput only.
type CountKernel func(*countTable) mc.Kernel

// CountDNF estimates #DNF — the number of satisfying assignments of d —
// with relative error eps and confidence 1−delta, implementing the
// Karp–Luby coverage algorithm (Theorem 5.2):
//
//	U := Σ_i |sat(T_i)|;
//	repeat t times: pick term i with probability |sat(T_i)|/U, pick a
//	uniform assignment a ⊨ T_i, count a hit iff i is the first term
//	satisfied by a;
//	output U · hits/t.
//
// The estimator is unbiased with expectation μ = #DNF/U ≥ 1/m, and t is
// Lemma 5.11's size at a proved lower bound on μ (PlanCount).
func CountDNF(ctx context.Context, d prop.DNF, eps, delta float64, k CountKernel, s mc.Stream) (CountResult, error) {
	pl, err := PlanCount(d, eps, delta, k)
	if err != nil {
		return CountResult{}, err
	}
	return pl.Run(ctx, s)
}

// termWeights returns the cumulative satisfying-assignment counts of
// the (normalized) terms and their grand total.
func termWeights(norm []prop.Term, numVars int) (cum []*big.Int, total *big.Int) {
	cum = make([]*big.Int, len(norm))
	total = new(big.Int)
	for i, tm := range norm {
		total.Add(total, prop.TermSatCount(tm, numVars))
		cum[i] = new(big.Int).Set(total)
	}
	return cum, total
}

// CountScalar is the interpreted kernel of CountDNF: one big-integer
// term pick, one materialized assignment and one first-satisfied scan
// per iteration. It is the reference CountBatched is tested against,
// and the kernel for totals past CountBatched's 63 bits.
func CountScalar(tb *countTable) mc.Kernel {
	return func(ln *mc.Lane) func(m int) error {
		a := make([]bool, tb.numVars)
		sc := &bigScratch{}
		return func(m int) error {
			for ; m > 0; m-- {
				i := pickCumulativeScratch(ln.Rng, tb.cum, tb.total, sc)
				sampleTermAssignment(ln.Rng, tb.norm[i], a, nil)
				if firstSatisfied(tb.norm, a) == i {
					ln.Hits++
				}
			}
			return nil
		}
	}
}

// probTable is a Prob-DNF instance prepared for sampling: float
// probabilities for the draws (exact rationals only scale the result).
type probTable struct {
	norm []prop.Term
	pf   []float64 // Pr[variable v is true]
	cum  []float64 // cumulative term probabilities
	sum  float64
}

// pick draws a term index proportionally to the term probabilities
// from one uniform draw u ∈ [0,1).
func (tb *probTable) pick(u float64) int {
	r := u * tb.sum
	i := 0
	for i < len(tb.cum)-1 && tb.cum[i] <= r {
		i++
	}
	return i
}

// A ProbKernel builds the per-lane iteration of ProbDNF: ProbScalar or
// ProbBatched, interchangeable as the CountKernels are.
type ProbKernel func(*probTable) mc.Kernel

// ProbDNF estimates Prob-DNF — the probability that d holds when
// variable v is independently true with probability p[v] — with relative
// error eps and confidence 1−delta, using the weighted Karp–Luby
// estimator: terms are drawn proportionally to Pr[T_i], the free
// variables are completed by independent ν-biased coin flips, and a hit
// is counted iff the drawn term is the first satisfied one; t as in
// CountDNF (PlanProb). This is the direct engine; the paper's own route
// via binary encoding is implemented by Reduce (Theorem 5.3). Both are
// compared in experiment E10.
func ProbDNF(ctx context.Context, d prop.DNF, p prop.ProbAssignment, eps, delta float64, k ProbKernel, s mc.Stream) (CountResult, error) {
	pl, err := PlanProb(d, p, eps, delta, k)
	if err != nil {
		return CountResult{}, err
	}
	return pl.Run(ctx, s)
}

// ProbScalar is the interpreted kernel of ProbDNF, the reference for
// ProbBatched.
func ProbScalar(tb *probTable) mc.Kernel {
	return func(ln *mc.Lane) func(m int) error {
		a := make([]bool, len(tb.pf))
		return func(m int) error {
			for ; m > 0; m-- {
				i := tb.pick(ln.Rng.Float64())
				sampleTermAssignment(ln.Rng, tb.norm[i], a, tb.pf)
				if firstSatisfied(tb.norm, a) == i {
					ln.Hits++
				}
			}
			return nil
		}
	}
}

// normalizedTerms returns the satisfiable normalized terms of d.
func normalizedTerms(d prop.DNF) []prop.Term {
	out := make([]prop.Term, 0, len(d.Terms))
	for _, t := range d.Terms {
		if nt, sat := t.Normalize(); sat {
			out = append(out, nt)
		}
	}
	return out
}

// pickCumulativeScratch draws an index proportional to the big.Int
// weights described by the cumulative sums cum (with grand total),
// reusing caller-owned scratch buffers so the hot sampling loops
// allocate nothing.
func pickCumulativeScratch(rng *rand.Rand, cum []*big.Int, total *big.Int, sc *bigScratch) int {
	r := randBigBelowScratch(rng, total, sc)
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid].Cmp(r) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sampleTermAssignment fills a with a random assignment satisfying the
// normalized term: fixed literals as dictated, free variables uniform
// (probs == nil) or independently true with probability probs[v].
func sampleTermAssignment(rng *rand.Rand, t prop.Term, a []bool, probs []float64) {
	for v := range a {
		if probs == nil {
			a[v] = rng.Intn(2) == 0
		} else {
			a[v] = rng.Float64() < probs[v]
		}
	}
	for _, l := range t {
		a[l.Var] = !l.Neg
	}
}

// firstSatisfied returns the index of the first term satisfied by a, or
// -1.
func firstSatisfied(terms []prop.Term, a []bool) int {
	for i, t := range terms {
		if t.Eval(a) {
			return i
		}
	}
	return -1
}
