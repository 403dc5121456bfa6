package prop

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// randFormula builds a random formula tree over numVars variables.
func randFormula(rng *rand.Rand, numVars, depth int) Formula {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(6) {
		case 0:
			return FTrue{}
		case 1:
			return FFalse{}
		default:
			return FVar(rng.Intn(numVars))
		}
	}
	switch rng.Intn(3) {
	case 0:
		return FNot{randFormula(rng, numVars, depth-1)}
	case 1:
		n := 1 + rng.Intn(3)
		fs := make(FAnd, n)
		for i := range fs {
			fs[i] = randFormula(rng, numVars, depth-1)
		}
		return fs
	default:
		n := 1 + rng.Intn(3)
		fs := make(FOr, n)
		for i := range fs {
			fs[i] = randFormula(rng, numVars, depth-1)
		}
		return fs
	}
}

func TestFormulaEval(t *testing.T) {
	// (x0 & !x1) | !(x2 | x0)
	f := FOr{
		FAnd{FVar(0), FNot{FVar(1)}},
		FNot{FOr{FVar(2), FVar(0)}},
	}
	cases := []struct {
		a    []bool
		want bool
	}{
		{[]bool{true, false, true}, true},
		{[]bool{false, false, false}, true},
		{[]bool{false, true, true}, false},
		{[]bool{true, true, false}, false},
	}
	for _, c := range cases {
		if got := f.Eval(c.a); got != c.want {
			t.Errorf("Eval(%v) = %v, want %v", c.a, got, c.want)
		}
	}
}

func TestToDNFEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const numVars = 5
	for iter := 0; iter < 200; iter++ {
		f := randFormula(rng, numVars, 3)
		d, err := ToDNFCtx(context.Background(), f, numVars, 10000)
		if err != nil {
			t.Fatalf("iter %d: ToDNFCtx(%v): %v", iter, f, err)
		}
		for m := 0; m < 1<<numVars; m++ {
			a := make([]bool, numVars)
			for i := range a {
				a[i] = m&(1<<i) != 0
			}
			if f.Eval(a) != d.Eval(a) {
				t.Fatalf("iter %d: formula %v and DNF %v disagree at %v", iter, f, d, a)
			}
		}
	}
}

func TestToDNFBudget(t *testing.T) {
	// A conjunction of n binary disjunctions distributes to 2^n terms.
	var f FAnd
	for i := 0; i < 20; i += 2 {
		f = append(f, FOr{FVar(i), FVar(i + 1)})
	}
	_, err := ToDNFCtx(context.Background(), f, 20, 100)
	if !errors.Is(err, ErrBudget) {
		t.Errorf("want ErrBudget, got %v", err)
	}
	if _, err := ToDNFCtx(context.Background(), f, 20, 1<<20); err != nil {
		t.Errorf("large budget should succeed: %v", err)
	}
}

func TestToDNFConstants(t *testing.T) {
	d, err := ToDNFCtx(context.Background(), FTrue{}, 2, 10)
	if err != nil || len(d.Terms) != 1 || len(d.Terms[0]) != 0 {
		t.Errorf("ToDNF(true) = %v, %v", d, err)
	}
	d, err = ToDNFCtx(context.Background(), FFalse{}, 2, 10)
	if err != nil || len(d.Terms) != 0 {
		t.Errorf("ToDNF(false) = %v, %v", d, err)
	}
	d, err = ToDNFCtx(context.Background(), FNot{FFalse{}}, 2, 10)
	if err != nil || !d.Eval([]bool{false, false}) {
		t.Errorf("ToDNF(!false) wrong: %v, %v", d, err)
	}
	if _, err := ToDNFCtx(context.Background(), FVar(5), 2, 10); err == nil {
		t.Error("variable outside declared range accepted")
	}
}

func TestFormulaString(t *testing.T) {
	f := FOr{FAnd{FVar(0)}, FNot{FVar(1)}}
	if got := f.String(); got != "((x0)) | (!x1)" {
		t.Errorf("String = %q", got)
	}
	if (FAnd{}).String() != "true" || (FOr{}).String() != "false" {
		t.Error("empty connective rendering wrong")
	}
}

func TestFold(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	const numVars = 6
	for iter := 0; iter < 150; iter++ {
		f := randFormula(rng, numVars, 3)
		fixed := map[int]bool{}
		for v := 0; v < numVars; v++ {
			if rng.Intn(2) == 0 {
				fixed[v] = rng.Intn(2) == 0
			}
		}
		folded := Fold(f, fixed)
		// Folded formula must not mention fixed variables.
		if fv, ok := folded.(FVar); ok {
			if _, bad := fixed[int(fv)]; bad {
				t.Fatalf("iter %d: fixed variable survived fold", iter)
			}
		}
		for m := 0; m < 1<<numVars; m++ {
			a := make([]bool, numVars)
			for i := range a {
				a[i] = m&(1<<i) != 0
			}
			consistent := true
			for v, val := range fixed {
				if a[v] != val {
					consistent = false
					break
				}
			}
			if !consistent {
				continue
			}
			if f.Eval(a) != folded.Eval(a) {
				t.Fatalf("iter %d: Fold changed semantics of %v under %v at %v", iter, f, fixed, a)
			}
		}
	}
	// Constant folding specifics.
	if _, ok := Fold(FNot{FFalse{}}, nil).(FTrue); !ok {
		t.Error("!false did not fold to true")
	}
	if _, ok := Fold(FAnd{FTrue{}, FTrue{}}, nil).(FTrue); !ok {
		t.Error("true & true did not fold")
	}
	if _, ok := Fold(FOr{}, nil).(FFalse); !ok {
		t.Error("empty Or did not fold to false")
	}
}
