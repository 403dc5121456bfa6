package bdd

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"qrel/internal/prop"
)

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

func TestTerminalsAndLiterals(t *testing.T) {
	b := New(2, 0)
	if b.NumNodes() != 2 {
		t.Fatalf("fresh manager has %d nodes", b.NumNodes())
	}
	x0, err := b.Lit(prop.Pos(0))
	if err != nil {
		t.Fatal(err)
	}
	if !b.Eval(x0, []bool{true, false}) || b.Eval(x0, []bool{false, false}) {
		t.Error("positive literal wrong")
	}
	nx0, _ := b.Lit(prop.Negd(0))
	if b.Eval(nx0, []bool{true, false}) || !b.Eval(nx0, []bool{false, false}) {
		t.Error("negative literal wrong")
	}
	if _, err := b.Lit(prop.Pos(5)); err == nil {
		t.Error("out-of-range literal accepted")
	}
	// Canonicity: same literal twice yields same node.
	x0b, _ := b.Lit(prop.Pos(0))
	if x0 != x0b {
		t.Error("unique table failed")
	}
}

func TestBooleanOps(t *testing.T) {
	b := New(3, 0)
	x0, _ := b.Lit(prop.Pos(0))
	x1, _ := b.Lit(prop.Pos(1))
	and, err := b.And(x0, x1)
	if err != nil {
		t.Fatal(err)
	}
	or, _ := b.Or(x0, x1)
	not, _ := b.Not(x0)
	for m := 0; m < 8; m++ {
		a := []bool{m&1 != 0, m&2 != 0, m&4 != 0}
		if b.Eval(and, a) != (a[0] && a[1]) {
			t.Errorf("And wrong at %v", a)
		}
		if b.Eval(or, a) != (a[0] || a[1]) {
			t.Errorf("Or wrong at %v", a)
		}
		if b.Eval(not, a) != !a[0] {
			t.Errorf("Not wrong at %v", a)
		}
	}
	// Identities.
	if r, _ := b.And(x0, True); r != x0 {
		t.Error("x & true != x")
	}
	if r, _ := b.Or(x0, False); r != x0 {
		t.Error("x | false != x")
	}
	if r, _ := b.And(x0, False); r != False {
		t.Error("x & false != false")
	}
	nn, _ := b.Not(not)
	if nn != x0 {
		t.Error("double negation not canonical")
	}
}

func TestFromDNFEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 80; iter++ {
		nv := 3 + rng.Intn(7)
		d := randDNF(rng, nv, 1+rng.Intn(8), 4)
		b := New(nv, 0)
		root, err := b.FromDNF(d)
		if err != nil {
			t.Fatal(err)
		}
		for m := 0; m < 1<<nv; m++ {
			a := make([]bool, nv)
			for i := range a {
				a[i] = m&(1<<i) != 0
			}
			if b.Eval(root, a) != d.Eval(a) {
				t.Fatalf("iter %d: BDD and DNF disagree at %v for %v", iter, a, d)
			}
		}
	}
}

func TestCountMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 60; iter++ {
		nv := 3 + rng.Intn(8)
		d := randDNF(rng, nv, 1+rng.Intn(8), 4)
		b := New(nv, 0)
		root, err := b.FromDNF(d)
		if err != nil {
			t.Fatal(err)
		}
		want, err := d.CountBruteForce(12)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.Count(root); got.Cmp(want) != 0 {
			t.Fatalf("iter %d: Count = %v, want %v for %v", iter, got, want, d)
		}
	}
}

func TestCountEdgeCases(t *testing.T) {
	b := New(5, 0)
	if got := b.Count(True); got.Int64() != 32 {
		t.Errorf("Count(True) = %v, want 32", got)
	}
	if got := b.Count(False); got.Int64() != 0 {
		t.Errorf("Count(False) = %v, want 0", got)
	}
	// A single variable at level 3: half the assignments.
	x3, _ := b.Lit(prop.Pos(3))
	if got := b.Count(x3); got.Int64() != 16 {
		t.Errorf("Count(x3) = %v, want 16", got)
	}
}

func TestProbMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for iter := 0; iter < 60; iter++ {
		nv := 3 + rng.Intn(6)
		d := randDNF(rng, nv, 1+rng.Intn(6), 3)
		p := make(prop.ProbAssignment, nv)
		for i := range p {
			p[i] = big.NewRat(int64(rng.Intn(11)), 10)
		}
		b := New(nv, 0)
		root, err := b.FromDNF(d)
		if err != nil {
			t.Fatal(err)
		}
		want, err := d.ProbBruteForce(p, 12)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Prob(root, p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("iter %d: Prob = %v, want %v for %v", iter, got, want, d)
		}
	}
}

func TestProbValidation(t *testing.T) {
	b := New(2, 0)
	x0, _ := b.Lit(prop.Pos(0))
	if _, err := b.Prob(x0, prop.ProbAssignment{big.NewRat(1, 2)}); err == nil {
		t.Error("short probability assignment accepted")
	}
}

func TestFromFormula(t *testing.T) {
	// (x0 & !x1) | !(x2 | x0)
	f := prop.FOr{
		prop.FAnd{prop.FVar(0), prop.FNot{F: prop.FVar(1)}},
		prop.FNot{F: prop.FOr{prop.FVar(2), prop.FVar(0)}},
	}
	b := New(3, 0)
	root, err := b.FromFormula(f)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 8; m++ {
		a := []bool{m&1 != 0, m&2 != 0, m&4 != 0}
		if b.Eval(root, a) != f.Eval(a) {
			t.Errorf("FromFormula wrong at %v", a)
		}
	}
	tn, _ := b.FromFormula(prop.FTrue{})
	fn, _ := b.FromFormula(prop.FFalse{})
	if tn != True || fn != False {
		t.Error("constants wrong")
	}
}

func TestContradictoryTerm(t *testing.T) {
	b := New(2, 0)
	n, err := b.FromTerm(prop.Term{prop.Pos(0), prop.Negd(0)})
	if err != nil || n != False {
		t.Errorf("contradictory term = %d, %v; want False", n, err)
	}
	// Empty term is True.
	n, err = b.FromTerm(prop.Term{})
	if err != nil || n != True {
		t.Errorf("empty term = %d, %v; want True", n, err)
	}
}

func TestNodeBudget(t *testing.T) {
	// Force growth beyond a tiny budget.
	b := New(20, 8)
	d := randDNF(rand.New(rand.NewSource(45)), 20, 10, 4)
	_, err := b.FromDNF(d)
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("want ErrTooLarge, got %v", err)
	}
}

func TestProbAndCountPollContext(t *testing.T) {
	// 1 599 internal nodes: more than one ctxCheckEvery stride.
	d := hubLineage(8)
	p := prop.UniformProb(d.NumVars)
	b := New(d.NumVars, 0)
	root, err := b.FromDNF(d)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	b.WithContext(ctx)
	want, err := b.Prob(root, p)
	if err != nil || b.Count(root) == nil {
		t.Fatalf("live context: Prob = %v, %v; Count = %v", want, err, b.Count(root))
	}
	cancel()
	if got, err := b.Prob(root, p); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled context: Prob = %v, %v; want context.Canceled", got, err)
	}
	if got := b.Count(root); got != nil {
		t.Errorf("canceled context: Count = %v, want nil", got)
	}
}

func TestSize(t *testing.T) {
	b := New(3, 0)
	x0, _ := b.Lit(prop.Pos(0))
	if got := b.Size(x0); got != 3 { // node + two terminals
		t.Errorf("Size(lit) = %d, want 3", got)
	}
	if got := b.Size(True); got != 1 {
		t.Errorf("Size(True) = %d, want 1", got)
	}
}

func TestCanonicityProperty(t *testing.T) {
	// Equivalent formulas compile to the identical root node.
	b := New(4, 0)
	d1 := prop.MustDNF(4, prop.Term{prop.Pos(0), prop.Pos(1)}, prop.Term{prop.Pos(0), prop.Negd(1)})
	d2 := prop.MustDNF(4, prop.Term{prop.Pos(0)})
	r1, _ := b.FromDNF(d1)
	r2, _ := b.FromDNF(d2)
	if r1 != r2 {
		t.Error("equivalent formulas got different roots (canonicity broken)")
	}
}
