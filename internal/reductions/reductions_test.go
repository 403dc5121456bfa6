package reductions

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"qrel/internal/core"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge symmetry broken")
	}
	if g.HasEdge(0, 2) {
		t.Error("phantom edge")
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Error("degrees wrong")
	}
	if err := g.AddEdge(0, 9); err == nil {
		t.Error("out-of-range edge accepted")
	}
	edges := g.Edges()
	if len(edges) != 2 || edges[0] != [2]int{0, 1} || edges[1] != [2]int{1, 2} {
		t.Errorf("Edges = %v", edges)
	}
}

func TestKColoring(t *testing.T) {
	// Path: 2-colourable.
	path := NewGraph(4)
	path.MustAddEdge(0, 1)
	path.MustAddEdge(1, 2)
	path.MustAddEdge(2, 3)
	colors, ok := path.KColoring(2)
	if !ok || !path.IsProperColoring(colors) {
		t.Error("path not 2-coloured")
	}
	// Triangle: 3 but not 2.
	tri := NewGraph(3)
	tri.MustAddEdge(0, 1)
	tri.MustAddEdge(1, 2)
	tri.MustAddEdge(2, 0)
	if _, ok := tri.KColoring(2); ok {
		t.Error("triangle 2-coloured")
	}
	if colors, ok := tri.KColoring(3); !ok || !tri.IsProperColoring(colors) {
		t.Error("triangle not 3-coloured")
	}
	// K5: 5 but not 4.
	k5 := NewGraph(5)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			k5.MustAddEdge(u, v)
		}
	}
	if _, ok := k5.KColoring(4); ok {
		t.Error("K5 4-coloured")
	}
	if _, ok := k5.KColoring(5); !ok {
		t.Error("K5 not 5-coloured")
	}
	// Self-loop: never colourable.
	loop := NewGraph(1)
	loop.MustAddEdge(0, 0)
	if _, ok := loop.KColoring(10); ok {
		t.Error("self-loop coloured")
	}
	// Edgeless: 1-colourable, and k = 0 works only for empty vertex set.
	empty := NewGraph(3)
	if _, ok := empty.KColoring(1); !ok {
		t.Error("edgeless graph not 1-coloured")
	}
	if _, ok := NewGraph(0).KColoring(0); !ok {
		t.Error("empty graph should be 0-colourable")
	}
	if _, ok := empty.KColoring(0); ok {
		t.Error("3 vertices coloured with 0 colours")
	}
}

func TestCountIndependentSetsPath(t *testing.T) {
	// Path graph: Fibonacci closed form.
	for n := 0; n <= 12; n++ {
		g := NewGraph(n)
		for i := 0; i+1 < n; i++ {
			g.MustAddEdge(i, i+1)
		}
		got, err := countIndependentSets(g)
		if err != nil {
			t.Fatal(err)
		}
		want := pathIndependentSets(n)
		if got.Cmp(want) != 0 {
			t.Errorf("n=%d: IS count %v, want %v", n, got, want)
		}
	}
}

func TestCountIndependentSetsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for iter := 0; iter < 30; iter++ {
		n := 2 + rng.Intn(8)
		g := RandomGraph(rng, n, 0.4)
		got, err := countIndependentSets(g)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force.
		want := 0
		for mask := 0; mask < 1<<n; mask++ {
			ok := true
			for _, e := range g.Edges() {
				if mask&(1<<e[0]) != 0 && mask&(1<<e[1]) != 0 {
					ok = false
					break
				}
			}
			if ok {
				want++
			}
		}
		if got.Int64() != int64(want) {
			t.Fatalf("iter %d: IS %v, brute force %d", iter, got, want)
		}
	}
}

func TestCountIndependentSetsSelfLoop(t *testing.T) {
	g := NewGraph(2)
	g.MustAddEdge(0, 0)
	g.MustAddEdge(0, 1)
	// Vertex 0 can never be chosen: sets {} and {1}.
	got, err := countIndependentSets(g)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != 2 {
		t.Errorf("IS with self-loop = %v, want 2", got)
	}
	big := NewGraph(MaxISVertices + 1)
	if _, err := countIndependentSets(big); err == nil {
		t.Error("oversized graph accepted")
	}
}

func TestMon2CNFCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 30; iter++ {
		n := 2 + rng.Intn(8)
		c := RandomMonotone2CNF(rng, n, 1+rng.Intn(2*n))
		bf, err := c.CountSatBruteForce(12)
		if err != nil {
			t.Fatal(err)
		}
		is, err := c.CountSat()
		if err != nil {
			t.Fatal(err)
		}
		if bf.Cmp(is) != 0 {
			t.Fatalf("iter %d: brute force %v != IS counter %v for %+v", iter, bf, is, c)
		}
	}
}

func TestMon2CNFValidate(t *testing.T) {
	c := Monotone2CNF{NumVars: 2, Clauses: [][2]int{{0, 5}}}
	if err := c.Validate(); err == nil {
		t.Error("bad clause accepted")
	}
	if _, err := c.CountSatBruteForce(12); err == nil {
		t.Error("bad clause counted")
	}
	big := Monotone2CNF{NumVars: 40}
	if _, err := big.CountSatBruteForce(12); err == nil {
		t.Error("budget not enforced")
	}
}

func TestProposition32Reduction(t *testing.T) {
	// The heart of Proposition 3.2: H_psi(D)·2^n = #SAT, verified with
	// two independent H engines and two independent counters.
	rng := rand.New(rand.NewSource(32))
	for iter := 0; iter < 12; iter++ {
		n := 2 + rng.Intn(5)
		c := RandomMonotone2CNF(rng, n, 1+rng.Intn(6))
		inst, err := BuildMon2SatInstance(c)
		if err != nil {
			t.Fatal(err)
		}
		// Engine 1: exact lineage BDD (scales to large n).
		res, err := core.LineageBDD(context.Background(), inst.DB, inst.Query, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		count, err := inst.ExpectedCount(res.H)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.CountSatBruteForce(12)
		if err != nil {
			t.Fatal(err)
		}
		if count.Cmp(want) != 0 {
			t.Fatalf("iter %d: reduction count %v, #SAT %v (formula %+v)", iter, count, want, c)
		}
		// Engine 2: world enumeration agrees.
		res2, err := core.WorldEnum(context.Background(), inst.DB, inst.Query, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.H.Cmp(res2.H) != 0 {
			t.Fatalf("iter %d: lineage H %v != enum H %v", iter, res.H, res2.H)
		}
		// Counter 2: independent sets.
		is, err := c.CountSat()
		if err != nil {
			t.Fatal(err)
		}
		if is.Cmp(want) != 0 {
			t.Fatalf("iter %d: IS %v != brute force %v", iter, is, want)
		}
	}
}

func TestProposition32LargeInstance(t *testing.T) {
	// Beyond brute force over worlds: 20 variables (2^20 worlds), but the
	// lineage BDD and the IS counter both handle it; they must agree.
	rng := rand.New(rand.NewSource(33))
	c := RandomMonotone2CNF(rng, 20, 25)
	inst, err := BuildMon2SatInstance(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.LineageBDD(context.Background(), inst.DB, inst.Query, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	count, err := inst.ExpectedCount(res.H)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.CountSat()
	if err != nil {
		t.Fatal(err)
	}
	if count.Cmp(want) != 0 {
		t.Fatalf("reduction count %v, #IS %v", count, want)
	}
}

func TestMon2SatInstanceShape(t *testing.T) {
	c := Monotone2CNF{NumVars: 3, Clauses: [][2]int{{0, 1}, {1, 2}}}
	inst, err := BuildMon2SatInstance(c)
	if err != nil {
		t.Fatal(err)
	}
	// Universe = 2 clauses + 3 variables.
	if inst.DB.A.N != 5 {
		t.Errorf("universe %d, want 5", inst.DB.A.N)
	}
	// All S atoms uncertain at 1/2, L and R certain.
	if inst.DB.NumUncertain() != 3 {
		t.Errorf("%d uncertain atoms, want 3", inst.DB.NumUncertain())
	}
	if !inst.DB.IsPositiveOnly() {
		t.Error("Prop 3.2 reduction must fit de Rougemont's positive-only model")
	}
	// The observed database satisfies psi (the all-false assignment
	// fails the formula).
	obs, err := core.WorldEnum(context.Background(), inst.DB, inst.Query, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if obs.R.Cmp(big.NewRat(1, 1)) == 0 {
		t.Error("instance unexpectedly absolutely reliable")
	}
	if _, err := BuildMon2SatInstance(Monotone2CNF{NumVars: 1, Clauses: [][2]int{{0, 3}}}); err == nil {
		t.Error("invalid CNF accepted")
	}
}

func TestLemma59Reduction(t *testing.T) {
	// D ∉ AR_psi ⟺ G is 4-colourable, for every instance with ≥ 1 edge.
	rng := rand.New(rand.NewSource(34))
	checked4col := 0
	for iter := 0; iter < 10; iter++ {
		n := 3 + rng.Intn(3) // ≤ 5 vertices: 2^(2n) ≤ 1024 worlds
		g := RandomGraph(rng, n, 0.6)
		if g.NumEdges() == 0 {
			g.MustAddEdge(0, 1)
		}
		inst, err := BuildFourColInstance(g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.AbsoluteReliability(inst.DB, inst.Query, core.Options{MaxEnumAtoms: 12})
		if err != nil {
			t.Fatal(err)
		}
		_, colorable := g.KColoring(4)
		if colorable == res.Reliable {
			t.Fatalf("iter %d: 4-colourable=%v but reliable=%v", iter, colorable, res.Reliable)
		}
		if colorable {
			checked4col++
			// The witness world decodes to a proper 4-colouring.
			colors := ColoringFromWorld(res.Witness)
			if !g.IsProperColoring(colors) {
				t.Fatalf("iter %d: witness decodes to improper colouring %v", iter, colors)
			}
		}
	}
	if checked4col == 0 {
		t.Error("no 4-colourable instances generated; tune the test")
	}
}

func TestLemma59NonColorable(t *testing.T) {
	// K5 is not 4-colourable: the instance must be absolutely reliable
	// (every world still satisfies the "not a colouring" query).
	k5 := NewGraph(5)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			k5.MustAddEdge(u, v)
		}
	}
	inst, err := BuildFourColInstance(k5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.AbsoluteReliability(inst.DB, inst.Query, core.Options{MaxEnumAtoms: 12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reliable {
		t.Error("K5 instance should be absolutely reliable")
	}
}

func TestRandomGraphDeterminism(t *testing.T) {
	g1 := RandomGraph(rand.New(rand.NewSource(7)), 10, 0.3)
	g2 := RandomGraph(rand.New(rand.NewSource(7)), 10, 0.3)
	e1, e2 := g1.Edges(), g2.Edges()
	if len(e1) != len(e2) {
		t.Fatal("random graph not deterministic under fixed seed")
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("random graph not deterministic under fixed seed")
		}
	}
}
