package datalog

import (
	"context"
	"fmt"
	"math/big"

	"qrel/internal/mc"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// Result is the outcome of a Datalog reliability computation, in the
// paper's terms: H is the expected Hamming distance between the query
// answer on the observed EDB and on the actual EDB; R = 1 − H/n^k where
// k is the number of distinct variables in the query pattern.
type Result struct {
	// H and R are exact (nil for the Monte Carlo engine).
	H, R *big.Rat
	// HFloat and RFloat are always populated.
	HFloat, RFloat float64
	// Arity is the number of distinct pattern variables.
	Arity int
	// Engine names the engine.
	Engine string
	// Samples counts sampled worlds (0 for the exact engine).
	Samples int
}

// answerSet evaluates the query pattern on an analysed program and
// returns the set of variable assignments (as tuple keys over the
// distinct pattern variables, in first-occurrence order).
func answerSet(a *analysis, edb *rel.Structure, q Atom) (map[uint64]struct{}, error) {
	matches, err := a.query(edb, q)
	if err != nil {
		return nil, err
	}
	vars := q.Vars()
	out := make(map[uint64]struct{}, len(matches))
	for _, m := range matches {
		a := make(rel.Tuple, len(vars))
		for vi, v := range vars {
			for j, arg := range q.Args {
				if arg.IsVar() && arg.Var == v {
					a[vi] = m[j]
					break
				}
			}
		}
		out[a.Key()] = struct{}{}
	}
	return out, nil
}

func symDiff(a, b map[uint64]struct{}) int {
	d := 0
	for k := range a {
		if _, ok := b[k]; !ok {
			d++
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			d++
		}
	}
	return d
}

// Reliability computes the exact expected error and reliability of the
// Datalog query on the unreliable EDB by world enumeration — Datalog
// queries are polynomial-time evaluable, so this instantiates Theorem
// 4.2 exactly as de Rougemont's result promised. budget caps the number
// of uncertain atoms; ctx is polled between worlds. The program is
// analysed once; each world is only evaluated.
func Reliability(ctx context.Context, db *unreliable.DB, prog *Program, q Atom, budget int) (Result, error) {
	a, err := prog.analyse(db.A.Voc)
	if err != nil {
		return Result{}, err
	}
	observed, err := answerSet(a, db.A, q)
	if err != nil {
		return Result{}, err
	}
	k := len(q.Vars())
	h := new(big.Rat)
	var evalErr error
	err = db.ForEachWorldCtx(ctx, budget, func(b *rel.Structure, nu *big.Rat) bool {
		actual, err := answerSet(a, b, q)
		if err != nil {
			evalErr = err
			return false
		}
		if d := symDiff(observed, actual); d > 0 {
			h.Add(h, new(big.Rat).Mul(nu, big.NewRat(int64(d), 1)))
		}
		return true
	})
	if err != nil {
		return Result{}, err
	}
	if evalErr != nil {
		return Result{}, evalErr
	}
	norm := big.NewRat(1, 1)
	for i := 0; i < k; i++ {
		norm.Mul(norm, big.NewRat(int64(db.A.N), 1))
	}
	r := new(big.Rat).Quo(h, norm)
	r.Sub(big.NewRat(1, 1), r)
	hf, _ := h.Float64()
	rf, _ := r.Float64()
	return Result{H: h, R: r, HFloat: hf, RFloat: rf, Arity: k, Engine: "datalog-world-enum"}, nil
}

// ReliabilityMC estimates the reliability with absolute error eps and
// confidence 1−delta by direct Hamming-distance sampling over worlds
// (the Theorem 5.12 regime: Datalog evaluation is polynomial, exact
// computation is #P-hard already for one conjunctive rule). The
// statistic is the symmetric difference of the answer sets over n^k,
// averaged by mc.EstimateMean on the seed's lane split, so the estimate
// is a function of (db, prog, q, eps, delta, seed). The program is
// analysed once per call; a sample only evaluates it on its world. A
// run that ctx cuts short is an error: Result has no field for a
// widened ε.
func ReliabilityMC(ctx context.Context, db *unreliable.DB, prog *Program, q Atom, eps, delta float64, seed int64) (Result, error) {
	a, err := prog.analyse(db.A.Voc)
	if err != nil {
		return Result{}, err
	}
	observed, err := answerSet(a, db.A, q)
	if err != nil {
		return Result{}, err
	}
	k := len(q.Vars())
	norm := 1.0
	for i := 0; i < k; i++ {
		norm *= float64(db.A.N)
	}
	stat := func(b *rel.Structure) (float64, error) {
		actual, err := answerSet(a, b, q)
		if err != nil {
			return 0, err
		}
		return float64(symDiff(observed, actual)) / norm, nil
	}
	est, _, err := mc.EstimateMean(ctx, mc.MeanKernel(db, stat), eps, delta, 0, mc.Stream{Seed: seed})
	if cerr := ctx.Err(); cerr != nil {
		return Result{}, fmt.Errorf("datalog: estimate cut short: %w", cerr)
	}
	if err != nil {
		return Result{}, err
	}
	return Result{
		HFloat:  est.Value * norm,
		RFloat:  1 - est.Value,
		Arity:   k,
		Engine:  "datalog-monte-carlo",
		Samples: est.Samples,
	}, nil
}
