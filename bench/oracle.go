package main

import (
	"context"
	"fmt"
	"math"
	"math/big"

	"qrel"
)

// The correctness oracle. Every reference reliability is computed in
// set-up by something other than the engine under test: a closed form
// written out here where the instance has one (independent atoms), and
// a different exact engine where it does not. A broken engine cannot
// pass by answering 1: checkRange rejects degenerate instances.

var one = big.NewRat(1, 1)

// qfreeOracle is the closed form for qfreeQuery: for x ≠ y the three
// ground atoms E(x,y), S(y), S(x) are distinct and independent, so
// Pr[ψ(x,y) holds] = ν(E(x,y))·ν(S(y))·(1−ν(S(x))); for x = y the
// formula is unsatisfiable. R = 1 − Σ Pr[ψ^B(x,y) ≠ ψ^A(x,y)] / n².
func qfreeOracle(db *qrel.DB) *big.Rat {
	n := db.A.N
	h := new(big.Rat)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if x == y {
				continue
			}
			p := new(big.Rat).Mul(db.NuAtom(edge(x, y)), db.NuAtom(label(y)))
			p.Mul(p, new(big.Rat).Sub(one, db.NuAtom(label(x))))
			obs := db.A.Holds("E", qrel.Tuple{x, y}) && db.A.Holds("S", qrel.Tuple{y}) && !db.A.Holds("S", qrel.Tuple{x})
			if obs {
				p.Sub(one, p)
			}
			h.Add(h, p)
		}
	}
	h.Quo(h, big.NewRat(int64(n*n), 1))
	return h.Sub(one, h)
}

// hubOracle is the closed form for existQuery on existHubDB: condition
// on which hub labels T are in the actual database; given T the query
// fails exactly when none of the |T|·(|T|−1) mutual edges is.
// The observed answer is false (no edge is observed), so R = Pr[false].
func hubOracle(db *qrel.DB, h int) *big.Rat {
	r := new(big.Rat)
	for mask := 0; mask < 1<<h; mask++ {
		w := big.NewRat(1, 1)
		for x := 0; x < h; x++ {
			nu := db.NuAtom(label(x))
			if mask&(1<<x) == 0 {
				nu = new(big.Rat).Sub(one, nu)
			}
			w.Mul(w, nu)
		}
		for x := 0; x < h; x++ {
			for y := 0; y < h; y++ {
				if x != y && mask&(1<<x) != 0 && mask&(1<<y) != 0 {
					w.Mul(w, new(big.Rat).Sub(one, db.NuAtom(edge(x, y))))
				}
			}
		}
		r.Add(r, w)
	}
	return r
}

// cycleOracle: cycleQuery holds in a world of cycleDB exactly when all
// n cycle edges survive.
func cycleOracle(db *qrel.DB) *big.Rat {
	n := db.A.N
	r := big.NewRat(1, 1)
	for i := 0; i < n; i++ {
		r.Mul(r, db.NuAtom(edge(i, (i+1)%n)))
	}
	return r
}

// fanOracle: cycleQuery holds in a world of fanDB exactly when every
// node keeps at least one of its two out-edges; the out-edge sets are
// disjoint, so the nodes are independent.
func fanOracle(db *qrel.DB) *big.Rat {
	n := db.A.N
	r := big.NewRat(1, 1)
	for x := 0; x < n; x++ {
		lose := new(big.Rat).Sub(one, db.NuAtom(edge(x, (x+1)%n)))
		lose.Mul(lose, new(big.Rat).Sub(one, db.NuAtom(edge(x, (x+fanStep)%n))))
		r.Mul(r, lose.Sub(one, lose))
	}
	return r
}

// engineOracle computes the reference with a named exact engine — the
// cross-check used where no closed form exists (safe-plan against
// lineage-bdd on the chain, world-enum against lineage-bdd on the
// small existential instance).
func engineOracle(engine qrel.Engine, db *qrel.DB, query string) (*big.Rat, error) {
	q, err := qrel.ParseQuery(query, db.A.Voc)
	if err != nil {
		return nil, err
	}
	res, err := qrel.ReliabilityWith(context.Background(), engine, db, q, qrel.Options{})
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", engine, err)
	}
	if res.R == nil {
		return nil, fmt.Errorf("oracle %s returned no exact value", engine)
	}
	return res.R, nil
}

// checkRange rejects an instance whose reliability is degenerate.
func checkRange(name string, r *big.Rat) error {
	f, _ := r.Float64()
	if f < 0.5 || f > 0.98 {
		return fmt.Errorf("instance %s has degenerate reliability %.4f (want 0.5..0.98)", name, f)
	}
	return nil
}

// checkExact compares an exact answer with its reference as rationals.
func checkExact(kind string, got, want *big.Rat) error {
	if got == nil {
		return fmt.Errorf("%s: no exact answer", kind)
	}
	if got.Cmp(want) != 0 {
		return fmt.Errorf("%s: exact answer %s, reference %s", kind, got.RatString(), want.RatString())
	}
	return nil
}

// checkWithin checks a sampled answer against the exact reference and
// the accuracy the engine promised.
func checkWithin(kind string, got float64, want *big.Rat, eps float64) error {
	w, _ := want.Float64()
	if math.Abs(got-w) > eps {
		return fmt.Errorf("%s: estimate %.6f is more than eps=%g from the exact %.6f", kind, got, eps, w)
	}
	return nil
}
