package bdd

import (
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"qrel/internal/prop"
)

// orFold ORs d's term chains into mgr left to right, the way FromDNF
// compiled before it sorted them.
func orFold(t testing.TB, mgr *BDD, d prop.DNF) int {
	t.Helper()
	root := False
	for _, term := range d.Terms {
		tn, err := mgr.FromTerm(term)
		if err != nil {
			t.Fatal(err)
		}
		if root, err = mgr.Or(root, tn); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// indexingOrder compiles d in the indexing order 0 < 1 < ...: a manager
// first used through FromTerm never chooses one.
func indexingOrder(t testing.TB, d prop.DNF) (*BDD, int) {
	t.Helper()
	mgr := New(d.NumVars, 0)
	root := orFold(t, mgr, d)
	if mgr.level != nil {
		t.Fatal("a manager first used through FromTerm chose an order")
	}
	return mgr, root
}

func TestOrdersArePermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 30; iter++ {
		d := randDNF(rng, 4+rng.Intn(8), 1+rng.Intn(8), 3)
		d.NumVars += rng.Intn(3) // trailing variables no term mentions
		mgr := New(d.NumVars, 0)
		if err := mgr.chooseOrder(d); err != nil {
			t.Fatal(err)
		}
		if len(mgr.level) != d.NumVars || len(mgr.varAt) != d.NumVars {
			t.Fatalf("iter %d: order covers %d/%d of %d variables", iter, len(mgr.level), len(mgr.varAt), d.NumVars)
		}
		mentioned := make([]bool, d.NumVars)
		for _, term := range d.Terms {
			for _, l := range term {
				mentioned[l.Var] = true
			}
		}
		seenUnmentioned := false
		for lv, v := range mgr.varAt {
			if v < 0 || v >= d.NumVars || mgr.level[v] != lv {
				t.Fatalf("iter %d: varAt %v and level %v are not inverse permutations", iter, mgr.varAt, mgr.level)
			}
			if !mentioned[v] {
				seenUnmentioned = true
			} else if seenUnmentioned {
				t.Fatalf("iter %d: mentioned variable %d below an unmentioned one in %v", iter, v, mgr.varAt)
			}
		}
		// The order is a function of the DNF alone.
		again := New(d.NumVars, 0)
		if err := again.chooseOrder(d); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.varAt, mgr.varAt) {
			t.Fatalf("iter %d: two managers chose %v and %v for one DNF", iter, mgr.varAt, again.varAt)
		}
	}
}

// TestOrderIsTheDocumentedOne pins the heuristic on a small DNF.
func TestOrderIsTheDocumentedOne(t *testing.T) {
	// Occurrences 0:3 1:2 2:2 3:1 5:2 6:1 7:1, so the terms weigh 5, 4,
	// 7, 3, 5. The walk starts at the lightest, {6,5}, rarer variable
	// first. Of the terms then two variables short {1,0} is first in
	// line; placing it leaves {0,5,2} and {2,0} one short, and they
	// overtake {3,7,1}, two short. Variables 4 and 8 occur nowhere.
	d := prop.MustDNF(9,
		prop.Term{prop.Pos(1), prop.Pos(0)},
		prop.Term{prop.Pos(3), prop.Negd(7), prop.Pos(1)},
		prop.Term{prop.Pos(0), prop.Negd(5), prop.Pos(2)},
		prop.Term{prop.Pos(6), prop.Pos(5)},
		prop.Term{prop.Pos(2), prop.Pos(0)},
	)
	mgr := New(9, 0)
	if _, err := mgr.FromDNF(d); err != nil {
		t.Fatal(err)
	}
	if want := []int{6, 5, 1, 0, 2, 3, 7, 4, 8}; !reflect.DeepEqual(mgr.varAt, want) {
		t.Errorf("order %v, want %v", mgr.varAt, want)
	}
}

func TestOrderPreservesCountAndProb(t *testing.T) {
	// Property: whatever order the manager chooses, and however the
	// caller happens to number the variables, the model count and the
	// probability are those of the indexing order.
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 40; iter++ {
		nv := 4 + rng.Intn(6)
		d := randDNF(rng, nv, 1+rng.Intn(6), 3)
		p := make(prop.ProbAssignment, nv)
		for i := range p {
			p[i] = big.NewRat(int64(1+rng.Intn(9)), 10)
		}
		ref, refRoot := indexingOrder(t, d)
		wantCount := ref.Count(refRoot)
		wantProb, err := ref.Prob(refRoot, p)
		if err != nil {
			t.Fatal(err)
		}
		// Rename variable v to perm[v].
		perm := rng.Perm(nv)
		renamed := prop.DNF{NumVars: nv}
		for _, term := range d.Terms {
			var nt prop.Term
			for _, l := range term {
				nt = append(nt, prop.Lit{Var: perm[l.Var], Neg: l.Neg})
			}
			renamed.Terms = append(renamed.Terms, nt)
		}
		pp := make(prop.ProbAssignment, nv)
		for v := range p {
			pp[perm[v]] = p[v]
		}
		for _, c := range []struct {
			d prop.DNF
			p prop.ProbAssignment
		}{{d, p}, {renamed, pp}} {
			mgr := New(nv, 0)
			root, err := mgr.FromDNF(c.d)
			if err != nil {
				t.Fatal(err)
			}
			if got := mgr.Count(root); got.Cmp(wantCount) != 0 {
				t.Fatalf("iter %d: count %v under order %v, want %v", iter, got, mgr.varAt, wantCount)
			}
			got, err := mgr.Prob(root, c.p)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(wantProb) != 0 {
				t.Fatalf("iter %d: prob %v under order %v, want %v", iter, got, mgr.varAt, wantProb)
			}
		}
	}
}

func TestOrderKeepsTermVariablesAdjacent(t *testing.T) {
	// x_{n-1} occurs in every term. The optimum (9 nodes) puts it at the
	// root or the bottom; rarer-first places it second, one node more.
	const n = 12
	shared := prop.DNF{NumVars: n}
	for i := 0; i+1 < n; i += 2 {
		shared.Terms = append(shared.Terms, prop.Term{prop.Pos(i), prop.Pos(n - 1)})
	}
	// Interleaved pairs ⋁ x_i ∧ x_{i+m}: exponential in the indexing
	// order, two nodes a term once each pair is adjacent.
	const m = 10
	pairs := prop.DNF{NumVars: 2 * m}
	for i := 0; i < m; i++ {
		pairs.Terms = append(pairs.Terms, prop.Term{prop.Pos(i), prop.Pos(i + m)})
	}
	// A star with edges both ways: all 24 terms share S(0), yet each
	// leaf's label must stay next to both of its edges — following
	// shared variables breadth-first would place every leaf's second
	// edge after all the labels and need 2^12 nodes.
	var star [][2]int
	for leaf := 1; leaf <= 12; leaf++ {
		star = append(star, [2]int{0, leaf}, [2]int{leaf, 0})
	}
	for _, c := range []struct {
		name            string
		d               prop.DNF
		chosen, indexed int
	}{
		{"shared", shared, 10, 9},
		{"pairs", pairs, 2*m + 2, 1 << (m + 1)},
		{"star", lineageDNF(13, star), 53, 36863},
	} {
		ref, refRoot := indexingOrder(t, c.d)
		mgr := New(c.d.NumVars, 0)
		root, err := mgr.FromDNF(c.d)
		if err != nil {
			t.Fatal(err)
		}
		if got, idx := mgr.Size(root), ref.Size(refRoot); got != c.chosen || idx != c.indexed {
			t.Errorf("%s: chosen order %d nodes, indexing order %d; want %d and %d", c.name, got, idx, c.chosen, c.indexed)
		}
	}
}
