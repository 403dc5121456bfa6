package karpluby

import (
	"context"
	"math"
	"math/big"

	"qrel/internal/mc"
	"qrel/internal/prop"
)

// Planner names the rule that sizes every Karp–Luby run: Lemma 5.11 at
// the coverage lower bound of coverageBound, capped at SampleSize.
// Checkpoints record it, so a run is never continued under a rule that
// would have sized its remaining tuples differently.
const Planner = "union-bound"

// A Plan is one Karp–Luby estimate sized and ready to draw: Samples
// iterations of a kernel, whose hit rate times the term-weight total is
// the estimate. Run draws exactly Samples iterations; raising Samples
// keeps the (ε, δ) guarantee (E10 runs the Lemma 5.11 worst case that
// way), lowering it voids the guarantee.
type Plan struct {
	Samples int
	scale   *big.Rat // Σ term weights; nil when the DNF is unsatisfiable
	kernel  mc.Kernel
	recover func(*big.Rat) *big.Rat // maps the estimate back (Theorem 5.3)
}

// Run draws the plan over stream s on the shared sampling driver
// (mc.Run) and scales the hit rate.
//
// Unlike the mc estimators, Karp–Luby is not anytime — a partial hit
// count has no widened-eps interpretation under the relative-error
// guarantee — so cancellation aborts with ctx.Err() rather than
// returning a partial estimate. Periodic snapshots still make the run
// resumable.
func (pl Plan) Run(ctx context.Context, s mc.Stream) (CountResult, error) {
	res := CountResult{Estimate: new(big.Rat), Samples: pl.Samples}
	if pl.scale != nil {
		lanes, err := mc.Run(ctx, klMethod, pl.Samples, false, s, pl.kernel)
		if err != nil {
			return CountResult{}, err
		}
		for _, ln := range lanes {
			res.Hits += ln.Hits
		}
		res.Estimate.Mul(pl.scale, big.NewRat(int64(res.Hits), int64(pl.Samples)))
	}
	if pl.recover != nil {
		res.Estimate = pl.recover(res.Estimate)
	}
	return res, nil
}

// PlanCount prepares CountDNF on d: the satisfiable terms, their
// satisfying-assignment counts, and t from the coverage bound at
// variable probability ½.
func PlanCount(d prop.DNF, eps, delta float64, k CountKernel) (Plan, error) {
	norm := normalizedTerms(d)
	t, err := planSamples(eps, delta, norm, literalProbs(prop.UniformProb(d.NumVars), d.NumVars, norm))
	if err != nil || len(norm) == 0 {
		return Plan{}, err
	}
	cum, total := termWeights(norm, d.NumVars)
	return Plan{Samples: t, scale: new(big.Rat).SetInt(total), kernel: k(&countTable{norm, d.NumVars, cum, total})}, nil
}

// PlanProb prepares ProbDNF on d under p: float term probabilities for
// the draws, their exact sum for the scale, and t from the coverage
// bound under p.
func PlanProb(d prop.DNF, p prop.ProbAssignment, eps, delta float64, k ProbKernel) (Plan, error) {
	if err := p.Validate(d.NumVars); err != nil {
		return Plan{}, err
	}
	norm := normalizedTerms(d)
	lit := literalProbs(p, d.NumVars, norm)
	t, err := planSamples(eps, delta, norm, lit)
	if err != nil || len(norm) == 0 {
		return Plan{}, err
	}
	tb := &probTable{norm: norm, pf: make([]float64, d.NumVars), cum: make([]float64, len(norm))}
	for v := range tb.pf {
		tb.pf[v] = lit[v][0]
	}
	weights := new(big.Rat)
	for i, tm := range norm {
		w := p.TermProb(tm)
		weights.Add(weights, w)
		wf, _ := w.Float64()
		tb.sum += wf
		tb.cum[i] = tb.sum
	}
	if weights.Sign() == 0 {
		return Plan{}, nil
	}
	return Plan{Samples: t, scale: weights, kernel: k(tb)}, nil
}

// literalProbs rounds Pr[v] and, for the variables some term negates,
// Pr[¬v] = 1 − Pr[v] to the nearest float64 each.
func literalProbs(p prop.ProbAssignment, numVars int, norm []prop.Term) [][2]float64 {
	lit := make([][2]float64, numVars)
	for v := range lit {
		lit[v][0], _ = p[v].Float64()
	}
	for _, tm := range norm {
		for _, l := range tm {
			if l.Neg && lit[l.Var][1] == 0 {
				lit[l.Var][1], _ = new(big.Rat).Sub(big.NewRat(1, 1), p[l.Var]).Float64()
			}
		}
	}
	return lit
}

// PlanViaReduction prepares the Theorem 5.3 pipeline: Reduce, then
// PlanCount on φ”; Run recovers ν(φ) from the #φ” estimate.
func PlanViaReduction(d prop.DNF, p prop.ProbAssignment, eps, delta float64, k CountKernel) (Plan, error) {
	red, err := Reduce(d, p)
	if err != nil {
		return Plan{}, err
	}
	pl, err := PlanCount(red.PhiPP, eps, delta, k)
	if err != nil {
		return Plan{}, err
	}
	pl.recover = red.Recover
	return pl, nil
}

// planSamples is the one Karp–Luby sample size: Lemma 5.11's
// t = ⌈4.5·ln(2/δ)/(ε²·p)⌉ at the coverage lower bound p of
// coverageBound, never more than SampleSize's worst case p = 1/m. An
// ε above 1 is planned as 1 — a relative error of 1 implies any larger
// one — and DESIGN.md ("Karp–Luby sample size") has why any p ≤ μ keeps
// the guarantee. lit[v] holds the probabilities of v's positive and
// negative literal, each rounded to nearest.
func planSamples(eps, delta float64, norm []prop.Term, lit [][2]float64) (int, error) {
	if len(norm) == 0 {
		return 0, nil
	}
	worst, err := SampleSize(eps, delta, len(norm))
	if err != nil {
		return 0, err
	}
	p := coverageBound(norm, lit, worst)
	if p*float64(len(norm)) <= 1 {
		return worst, nil
	}
	e := math.Min(eps, 1)
	t := math.Ceil(4.5 * math.Log(2/delta) / (e * e * p))
	return int(math.Min(t, float64(worst))), nil
}

// minNormal is the smallest normal float64: below it a product's
// relative rounding error is no longer bounded.
const minNormal = 0x1p-1022

// coverageBound returns a lower bound on the coverage
// μ = Pr[⋁Tᵢ] / Σ Pr[Tᵢ] of the satisfiable normalized terms under
// independent literal probabilities lit, or 0 when it cannot certify
// one: the largest of the three classical lower bounds on Pr[⋁Tᵢ] —
// maxᵢ wᵢ, second-order Bonferroni W − Σᵢ<ⱼ qᵢⱼ and de Caen's
// Σᵢ wᵢ² / Σⱼ qᵢⱼ — over W = Σᵢ wᵢ, where wᵢ = Pr[Tᵢ] and
// qᵢⱼ = Pr[Tᵢ ∧ Tⱼ].
//
// Terms that share no variable are independent (qᵢⱼ = wᵢwⱼ) and enter
// through W; only the Σᵥ deg(v)² pairs met through per-variable term
// lists are enumerated, and when that exceeds budget — the draws the
// bound could save — the planner does not try. Every float result is
// pushed down by a slack that dominates its rounding error; an
// underflow gives up.
func coverageBound(norm []prop.Term, lit [][2]float64, budget int) float64 {
	m := len(norm)
	termsOf := make([][]int32, len(lit)) // the terms containing each variable
	prob := func(l prop.Lit) float64 {
		if l.Neg {
			return lit[l.Var][1]
		}
		return lit[l.Var][0]
	}
	w := make([]float64, m)
	var total, maxW float64
	width := 0
	for i, tm := range norm {
		x := 1.0
		for _, l := range tm {
			x = float64(x * prob(l))
			termsOf[l.Var] = append(termsOf[l.Var], int32(i))
		}
		if x < minNormal {
			return 0
		}
		w[i] = x
		total += x
		maxW = max(maxW, x)
		width = max(width, len(tm))
	}
	cost := 0
	for _, ts := range termsOf {
		cost += len(ts) * len(ts)
	}
	if cost > budget {
		return 0
	}
	// Every sum above and below adds at most m products of at most 4·width
	// correctly rounded factors, so its relative error is at most γ(n),
	// n = 4·width + m + 8 roundings (Higham, Accuracy and Stability of
	// Numerical Algorithms, §3.1). The slack is 16γ(n).
	n := float64(4*width + m + 8)
	g := n * 0x1p-53 / (1 - n*0x1p-53)
	slack := 16 * g

	// Row i: dᵢ = Σⱼ qᵢⱼ (qᵢᵢ = wᵢ) = wᵢ·(W − Aᵢ) + Bᵢ, where Aᵢ and Bᵢ sum
	// wⱼ and qᵢⱼ over the terms sharing a variable with Tᵢ, Tᵢ included.
	sign := make([]int8, len(lit)) // Tᵢ's literal on each variable: +1, −1 or 0
	seen := make([]int32, m)       // i+1 once term j is counted in row i
	var sumD, deCaen float64
	for i, ti := range norm {
		for _, l := range ti {
			sign[l.Var] = 1
			if l.Neg {
				sign[l.Var] = -1
			}
		}
		seen[i] = int32(i + 1)
		a, b := w[i], w[i]
		for _, l := range ti {
			for _, j := range termsOf[l.Var] {
				if seen[j] == int32(i+1) {
					continue
				}
				seen[j] = int32(i + 1)
				a += w[j]
				q := w[i]
				for _, lj := range norm[j] {
					if s := sign[lj.Var]; s == 0 {
						q = float64(q * prob(lj))
					} else if (s < 0) != lj.Neg {
						q = 0 // Tᵢ ∧ Tⱼ is contradictory
						break
					}
				}
				if q != 0 && q < minNormal {
					return 0
				}
				b += q
			}
		}
		for _, l := range ti {
			sign[l.Var] = 0
		}
		// W − Aᵢ ≥ 0 is a difference: its error is absolute, ≤ 3γ(n)·W.
		// (The float64 conversions keep products from being fused into
		// the next addition, so every platform rounds, and plans, alike.)
		rest := max(total-a, 0) + float64(slack*total)
		d := float64((float64(w[i]*rest) + b) * (1 + slack))
		sumD += d
		if c := float64(float64(w[i]*(1-slack)) * (w[i] / d)); c >= minNormal {
			deCaen += c // dropping a term that underflows keeps a lower bound
		}
	}
	// Σᵢ dᵢ = W + 2·Σᵢ<ⱼ qᵢⱼ, so Bonferroni's W − Σᵢ<ⱼ qᵢⱼ is (3W − Σᵢ dᵢ)/2.
	bonferroni := (float64(3*total*(1-slack))-float64(sumD*(1+slack)))/2 - float64(slack*total)
	lower := max(maxW*(1-slack), bonferroni, deCaen*(1-slack))
	return lower / (total * (1 + slack)) * (1 - slack)
}
