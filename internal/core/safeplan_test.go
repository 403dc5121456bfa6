package core

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"time"

	"qrel/internal/faultinject"
	"qrel/internal/logic"
	"qrel/internal/rel"
	"qrel/internal/safeplan"
	"qrel/internal/unreliable"
)

func safeVoc() *rel.Vocabulary {
	return rel.MustVocabulary(
		rel.RelSym{Name: "A", Arity: 1}, rel.RelSym{Name: "B", Arity: 1},
		rel.RelSym{Name: "L", Arity: 2}, rel.RelSym{Name: "M", Arity: 2},
		rel.RelSym{Name: "T", Arity: 3},
	)
}

// randSafeQuery draws a self-join-free conjunctive query whose
// quantified variables are hierarchical by construction: x, y, z form a
// random forest and every atom holds a full root-to-node path, padded
// with repeated variables, elements and the free-only variable u. Up to
// two of x, y, z, u are free, so free variables also link atoms the
// hierarchy would keep apart.
func randSafeQuery(rng *rand.Rand, n int) string {
	names := []string{"x", "y", "z"}
	parent := []int{-1, rng.Intn(2) - 1, rng.Intn(3) - 1}
	var paths [][]string // paths[v]: the variables from v's root down to v
	for v := range names {
		var p []string
		if parent[v] >= 0 {
			p = append(p, paths[parent[v]]...)
		}
		paths = append(paths, append(p, names[v]))
	}
	free := map[string]bool{}
	pool := []string{"x", "y", "z", "u"}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	for _, v := range pool[:rng.Intn(3)] {
		free[v] = true
	}

	syms := safeVoc().Rels
	rng.Shuffle(len(syms), func(i, j int) { syms[i], syms[j] = syms[j], syms[i] })
	used := map[string]bool{}
	var atoms []string
	for _, sym := range syms[:1+rng.Intn(len(syms))] {
		var path []string // empty: a ground atom
		if v := rng.Intn(len(names) + 1); v < len(names) && len(paths[v]) <= sym.Arity {
			path = paths[v]
		}
		args := append([]string(nil), path...)
		for len(args) < sym.Arity {
			switch c := rng.Intn(3); {
			case c == 0 && len(path) > 0:
				args = append(args, path[rng.Intn(len(path))])
			case c == 1 && free["u"]:
				args = append(args, "u")
			default:
				args = append(args, fmt.Sprintf("#%d", rng.Intn(n)))
			}
		}
		rng.Shuffle(len(args), func(i, j int) { args[i], args[j] = args[j], args[i] })
		for _, a := range args {
			used[a] = true
		}
		atoms = append(atoms, sym.Name+"("+strings.Join(args, ",")+")")
	}
	var quantified []string
	for _, v := range names {
		if used[v] && !free[v] {
			quantified = append(quantified, v)
		}
	}
	body := strings.Join(atoms, " & ")
	if len(quantified) == 0 {
		return body
	}
	return "exists " + strings.Join(quantified, " ") + " . " + body
}

// randSafeDB draws a database over safeVoc with at most maxU uncertain
// atoms: one relation stays empty, the others hold observed tuples that
// are right, wrong (mu = 1) or uncertain, and absent atoms that are
// sure to exist (mu = 1) or may. The error probabilities mix coprime
// denominators with one past 2^61, whose products overflow a word.
func randSafeDB(rng *rand.Rand, n, maxU int) *unreliable.DB {
	s := rel.MustStructure(n, safeVoc())
	d := unreliable.New(s)
	huge := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 61), big.NewInt(1))
	mus := []*big.Rat{
		big.NewRat(1, 3), big.NewRat(2, 7), big.NewRat(5, 11), big.NewRat(1, 2),
		new(big.Rat).SetFrac(big.NewInt(12345), huge),
		new(big.Rat).SetFrac(new(big.Int).Sub(huge, big.NewInt(2)), huge),
	}
	empty := rng.Intn(len(s.Voc.Rels))
	for i, sym := range s.Voc.Rels {
		if i == empty {
			continue
		}
		rel.ForEachTuple(n, sym.Arity, func(t rel.Tuple) bool {
			if rng.Intn(3) != 0 {
				return true
			}
			t = t.Clone()
			if rng.Intn(2) == 0 {
				s.MustAdd(sym.Name, t...)
			}
			atom := rel.GroundAtom{Rel: sym.Name, Args: t}
			switch c := rng.Intn(4); {
			case c == 0:
				d.MustSetError(atom, big.NewRat(1, 1))
			case c <= 2 && d.NumUncertain() < maxU:
				d.MustSetError(atom, mus[rng.Intn(len(mus))])
			}
			return true
		})
	}
	return d
}

// checkSafePlan compares safe-plan on one instance with world
// enumeration and the lineage BDD — R and H as strings — and the plan's
// observed truths with logic.Eval on every tuple.
func checkSafePlan(t *testing.T, d *unreliable.DB, src string) {
	t.Helper()
	f, err := logic.Parse(src, d.A.Voc)
	if err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	sp, err := ReliabilityWith(bg, EngineSafePlan, d, f, Options{})
	if err != nil {
		t.Fatalf("%q: safe-plan: %v", src, err)
	}
	for _, engine := range []Engine{EngineWorldEnum, EngineLineageBDD} {
		want, err := ReliabilityWith(bg, engine, d, f, Options{})
		if err != nil {
			t.Fatalf("%q: %s: %v", src, engine, err)
		}
		if sp.R.String() != want.R.String() || sp.H.String() != want.H.String() || sp.Arity != want.Arity {
			t.Fatalf("%q: safe-plan R=%s H=%s k=%d, %s R=%s H=%s k=%d", src, sp.R, sp.H, sp.Arity, engine, want.R, want.H, want.Arity)
		}
	}
	q, err := safeplan.FromFormula(f)
	if err != nil {
		t.Fatal(err)
	}
	observed := map[uint64]bool{}
	err = q.Eval(bg, d, func(tuple rel.Tuple, num, den *big.Int, obs bool) {
		if num.Sign() < 0 || num.Cmp(den) > 0 {
			t.Fatalf("%q %v: probability %s/%s", src, tuple, num, den)
		}
		observed[tuple.Key()] = obs
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = forEachFreeTuple(bg, d.A, f, func(env logic.Env, tuple rel.Tuple) error {
		want, err := logic.Eval(d.A, f, env)
		if err == nil && observed[tuple.Key()] != want {
			err = fmt.Errorf("%q %v: plan observes %v, logic.Eval %v", src, tuple, !want, want)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSafePlanMatchesExactEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	arities := map[int]int{}
	for iter := 0; iter < 300; iter++ {
		n := 2 + rng.Intn(3)
		d := randSafeDB(rng, n, 4+rng.Intn(9))
		src := randSafeQuery(rng, n)
		checkSafePlan(t, d, src)
		arities[len(logic.FreeVars(logic.MustParse(src, d.A.Voc)))]++
	}
	for k := 0; k <= 2; k++ {
		if arities[k] < 20 {
			t.Errorf("only %d of 300 generated queries have %d free variables", arities[k], k)
		}
	}
	// The shapes the generator reaches only by luck.
	d := randSafeDB(rng, 3, 10)
	for _, src := range []string{
		"exists x . L(x,x)",
		"exists x y . A(x) & L(x,y) & T(y,x,y)",
		"exists x y . A(x) & B(y)",
		"A(#0) & B(#1)",
		"exists y . A(x) & L(x,y) & B(y)", // H0 once x is bound
		"A(x) & L(x,y) & B(y)",
		"exists z . T(x,z,y) & M(y,#1)",
	} {
		checkSafePlan(t, d, src)
	}
}

func FuzzSafePlan(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		checkSafePlan(t, randSafeDB(rng, n, 4+rng.Intn(9)), randSafeQuery(rng, n))
	})
}

// TestSafePlanSafetyIsStatic: whether a query has a safe plan depends
// on the query alone. The query contains H0; while R has no support the
// old evaluator multiplied by zero before reaching it and answered.
func TestSafePlanSafetyIsStatic(t *testing.T) {
	voc := rel.MustVocabulary(
		rel.RelSym{Name: "R", Arity: 2}, rel.RelSym{Name: "S", Arity: 1},
		rel.RelSym{Name: "L", Arity: 2}, rel.RelSym{Name: "T", Arity: 1},
	)
	f := logic.MustParse("exists w x y . R(w,w) & S(x) & L(x,y) & T(y)", voc)
	s := rel.MustStructure(3, voc)
	s.MustAdd("S", 0)
	s.MustAdd("L", 0, 1)
	s.MustAdd("T", 1)
	d := unreliable.New(s)
	d.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{0}}, big.NewRat(1, 3))
	d.MustSetError(rel.GroundAtom{Rel: "T", Args: rel.Tuple{1}}, big.NewRat(1, 4))
	for _, withR := range []bool{false, true} {
		if withR {
			d.MustSetError(rel.GroundAtom{Rel: "R", Args: rel.Tuple{1, 1}}, big.NewRat(1, 5))
		}
		if _, err := SafePlan(bg, d, f, Options{}); !errors.Is(err, safeplan.ErrNotHierarchical) {
			t.Errorf("R uncertain=%v: safe-plan returned %v, want ErrNotHierarchical", withR, err)
		}
		res, err := Reliability(bg, d, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Engine == "safe-plan" || len(res.FallbackTrail) == 0 || res.FallbackTrail[0].Engine != string(EngineSafePlan) {
			t.Errorf("R uncertain=%v: auto answered with %s, trail %v", withR, res.Engine, res.FallbackTrail)
		}
		want, err := LineageBDD(bg, d, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.R.String() != want.R.String() {
			t.Errorf("R uncertain=%v: auto R = %s, lineage-bdd %s", withR, res.R, want.R)
		}
	}
}

// benchChain is the chain instance of the benchmark's exact-ladder
// workload: edges i→i+1 observed with error 1/10..3/10, no label
// observed, each possible with a probability near 1/(3n).
func benchChain(rng *rand.Rand, n int) (*unreliable.DB, logic.Formula) {
	voc := rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2}, rel.RelSym{Name: "S", Arity: 1})
	s := rel.MustStructure(n, voc)
	d := unreliable.New(s)
	for i := 0; i+1 < n; i++ {
		s.MustAdd("E", i, i+1)
		d.MustSetError(rel.GroundAtom{Rel: "E", Args: rel.Tuple{i, i + 1}}, big.NewRat(int64(1+rng.Intn(3)), 10))
		d.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{i}}, big.NewRat(1, int64(5*n/2+rng.Intn(n/2+1))))
	}
	return d, logic.MustParse("exists x y . S(x) & E(x,y)", voc)
}

// TestSafePlanWorkIsLinearInSupport is the zero-noise work gate: heap
// allocations are exact. The universe loop this engine replaced made
// 1 848 140 at n = 256 and grew with n².
func TestSafePlanWorkIsLinearInSupport(t *testing.T) {
	allocs := func(n int) float64 {
		d, f := benchChain(rand.New(rand.NewSource(1)), n)
		d.Weights() // the lazily built tables belong to the database
		return testing.AllocsPerRun(5, func() {
			if _, err := SafePlan(bg, d, f, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(256), allocs(1024)
	t.Logf("allocations: n=256 %.0f, n=1024 %.0f", small, large)
	if small > 2000 {
		t.Errorf("n=256: %.0f allocations, ceiling 2000", small)
	}
	if large > 5*small {
		t.Errorf("n=1024 costs %.0f allocations, more than 5× n=256 (%.0f): not linear in the support", large, small)
	}
}

// cancelAfterCtx reports cancellation from its n-th poll on.
type cancelAfterCtx struct {
	context.Context
	left int
}

func (c *cancelAfterCtx) Err() error {
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

func TestSafePlanCancellationAndFaultSite(t *testing.T) {
	defer faultinject.Reset()
	d, f := benchChain(rand.New(rand.NewSource(2)), 64)
	canceled, cancel := context.WithCancel(bg)
	cancel()
	if _, err := ReliabilityWith(canceled, EngineSafePlan, d, f, Options{}); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled context: %v, want ErrCanceled", err)
	}
	if _, err := ReliabilityWith(bg, EngineSafePlan, d, f, Options{Budget: Budget{Timeout: time.Nanosecond}}); !errors.Is(err, ErrCanceled) {
		t.Errorf("expired Budget.Timeout: %v, want ErrCanceled", err)
	}
	// A Boolean query polls once per root value of its outermost
	// projection, so cancellation lands in the middle of the plan.
	polls := &pollCountingCtx{Context: bg}
	if _, err := SafePlan(polls, d, f, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := polls.polls.Load(); got < 63 {
		t.Errorf("Boolean chain polled ctx %d times over 63 root values", got)
	}
	if _, err := ReliabilityWith(&cancelAfterCtx{Context: bg, left: 20}, EngineSafePlan, d, f, Options{}); !errors.Is(err, ErrCanceled) {
		t.Errorf("cancellation at the 21st poll: %v, want ErrCanceled", err)
	}
	unary := logic.MustParse("exists y . S(x) & E(x,y)", d.A.Voc)
	if _, err := ReliabilityWith(&cancelAfterCtx{Context: bg, left: 20}, EngineSafePlan, d, unary, Options{}); !errors.Is(err, ErrCanceled) {
		t.Errorf("unary query, cancellation at the 21st poll: %v, want ErrCanceled", err)
	}

	injected := fmt.Errorf("safe plan knocked out")
	faultinject.Enable(faultinject.SiteSafePlan, faultinject.Fault{Err: injected})
	if _, err := ReliabilityWith(bg, EngineSafePlan, d, f, Options{}); !errors.Is(err, injected) {
		t.Errorf("armed %s: %v, want the injected error", faultinject.SiteSafePlan, err)
	}
}
