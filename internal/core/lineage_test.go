package core

import (
	"errors"
	"math/big"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"qrel/internal/bdd"
	"qrel/internal/karpluby"
	"qrel/internal/logic"
	"qrel/internal/prop"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
	"qrel/internal/workload"
)

// existQuery has a self-join on S: outside the safe fragment, so auto
// goes to world-enum (u ≤ MaxEnumAtoms) or lineage-bdd.
var existQuery = logic.MustParse("exists x y . E(x,y) & S(x) & S(y)", nil)

func edgeAtom(x, y int) rel.GroundAtom { return rel.GroundAtom{Rel: "E", Args: rel.Tuple{x, y}} }
func labelAtom(x int) rel.GroundAtom   { return rel.GroundAtom{Rel: "S", Args: rel.Tuple{x}} }

// tenth returns lo/10 .. hi/10.
func tenth(rng *rand.Rand, lo, hi int) *big.Rat {
	return big.NewRat(int64(lo+rng.Intn(hi-lo+1)), 10)
}

// labelledGraphDB observes the given edges and a label on every node
// with an out-edge, all of them uncertain; name relabels the universe.
func labelledGraphDB(rng *rand.Rand, n int, edges [][2]int, name func(int) int) *unreliable.DB {
	s := rel.MustStructure(n, workload.GraphVoc())
	db := unreliable.New(s)
	labelled := make([]bool, n)
	for _, e := range edges {
		x, y := name(e[0]), name(e[1])
		s.MustAdd("E", x, y)
		db.MustSetError(edgeAtom(x, y), tenth(rng, 1, 4))
		if !labelled[e[0]] {
			labelled[e[0]] = true
			s.MustAdd("S", x)
			db.MustSetError(labelAtom(x), tenth(rng, 1, 3))
		}
	}
	return db
}

func identity(x int) int { return x }

// pathEdges is 0→1→…→m: with labels on the m sources, 2m uncertain
// atoms and m-1 terms (S(m) is certainly false).
func pathEdges(m int) [][2]int {
	edges := make([][2]int, m)
	for i := range edges {
		edges[i] = [2]int{i, i + 1}
	}
	return edges
}

// hubDB is the bench's exist-large shape: h labelled hubs, none of the
// h·(h-1) mutual edges observed but each present with a small
// probability; u = h².
func hubDB(rng *rand.Rand, h int) *unreliable.DB {
	s := rel.MustStructure(h+4, workload.GraphVoc())
	db := unreliable.New(s)
	for x := 0; x < h; x++ {
		s.MustAdd("S", x)
		db.MustSetError(labelAtom(x), tenth(rng, 4, 6))
		for y := 0; y < h; y++ {
			if x != y {
				db.MustSetError(edgeAtom(x, y), big.NewRat(1, int64(25+rng.Intn(16))))
			}
		}
	}
	return db
}

// compileLineage compiles the Boolean query's lineage the way
// lineageProb does and returns the term count, the allocated nodes and
// the reachable size.
func compileLineage(t *testing.T, db *unreliable.DB, f logic.Formula) (terms, allocated, size int) {
	t.Helper()
	d, _, err := tupleLineage(bg, db, f, logic.Env{})
	if err != nil {
		t.Fatal(err)
	}
	mgr := bdd.New(d.NumVars, 0)
	root, err := mgr.FromDNF(d)
	if err != nil {
		t.Fatal(err)
	}
	return len(d.Terms), mgr.NumNodes(), mgr.Size(root)
}

// TestLineageNodeCounts is the zero-noise gate on the variable order
// and the build: node counts are a pure function of (db, query), so
// they are pinned exactly. A worse order or a build that leaves more
// garbage fails here before any timing moves.
func TestLineageNodeCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	star := make([][2]int, 0, 24)
	for leaf := 1; leaf <= 12; leaf++ {
		star = append(star, [2]int{0, leaf}, [2]int{leaf, 0})
	}
	const side = 6
	var grid [][2]int
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				grid = append(grid, [2]int{r*side + c, r*side + c + 1})
			}
			if r+1 < side {
				grid = append(grid, [2]int{r*side + c, (r+1)*side + c})
			}
		}
	}
	chain, chainQuery := benchChain(rng, 256)
	perm := rng.Perm(65)
	cases := []struct {
		name                   string
		db                     *unreliable.DB
		f                      logic.Formula
		terms, allocated, size int
	}{
		// Pathwidth 2: three nodes a term (3·terms + 2), whatever the length.
		{"path u=32", labelledGraphDB(rng, 17, pathEdges(16), identity), existQuery, 15, 88, 47},
		{"path u=64", labelledGraphDB(rng, 33, pathEdges(32), identity), existQuery, 31, 184, 95},
		{"path u=256", labelledGraphDB(rng, 129, pathEdges(128), identity), existQuery, 127, 760, 383},
		{"path u=1024", labelledGraphDB(rng, 513, pathEdges(512), identity), existQuery, 511, 3064, 1535},
		// The order follows the lineage, not the numbering of the universe.
		{"path u=128 relabelled", labelledGraphDB(rng, 65, pathEdges(64), func(x int) int { return perm[x] }), existQuery, 63, 376, 191},
		{"path u=128", labelledGraphDB(rng, 65, pathEdges(64), identity), existQuery, 63, 376, 191},
		// Ceiling when re-pinning: 1 700 reachable, allocated ≤ 2.5× reachable
		// (the indexing order needed 3 124 and 31 453).
		{"hub h=8", hubDB(rng, 8), existQuery, 56, 3526, 1538},
		// Edges both ways: every leaf's two terms must stay together although
		// all 24 share S(0).
		{"star 12 leaves", labelledGraphDB(rng, 13, star, identity), existQuery, 24, 251, 53},
		{"grid 6x6", labelledGraphDB(rng, side*side, grid, identity), existQuery, 58, 2443, 1857},
		// Variable-disjoint terms: two nodes a term.
		{"chain n=256", chain, chainQuery, 255, 1020, 512},
	}
	for _, c := range cases {
		terms, allocated, size := compileLineage(t, c.db, c.f)
		if terms != c.terms || allocated != c.allocated || size != c.size {
			t.Errorf("%s: %d terms, %d nodes allocated, %d reachable; want %d, %d, %d",
				c.name, terms, allocated, size, c.terms, c.allocated, c.size)
		}
	}
}

// TestPathLineageIsExactThroughAuto: path-shaped instances that used to
// exceed the node budget from u = 48 on, and so got a sampled answer,
// are answered exactly by lineage-bdd; the value is checked against a
// two-state dynamic program over the path.
func TestPathLineageIsExactThroughAuto(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, m := range []int{24, 32, 64, 128} {
		db := labelledGraphDB(rng, m+1, pathEdges(m), identity)
		res, err := Reliability(bg, db, existQuery, Options{})
		if err != nil {
			t.Fatalf("u=%d: %v", 2*m, err)
		}
		if res.Engine != "lineage-bdd" || res.Guarantee != Exact {
			t.Errorf("u=%d: answered by %s (%v), want lineage-bdd (exact)", 2*m, res.Engine, res.Guarantee)
			continue
		}
		// free[s] = Pr[no witness on the edges before i, S(i) = s].
		one := big.NewRat(1, 1)
		not := func(p *big.Rat) *big.Rat { return new(big.Rat).Sub(one, p) }
		label := func(i int) *big.Rat { return db.NuAtom(labelAtom(i)) } // 0 at i = m
		free := [2]*big.Rat{not(label(0)), label(0)}
		for i := 0; i < m; i++ {
			any := new(big.Rat).Add(free[0], free[1])
			noEdge := new(big.Rat).Mul(free[1], not(db.NuAtom(edgeAtom(i, i+1))))
			free = [2]*big.Rat{
				any.Mul(any, not(label(i+1))),
				noEdge.Add(noEdge, free[0]).Mul(noEdge, label(i+1)),
			}
		}
		// The observed database has a witness, so R = Pr[some witness].
		if want := not(new(big.Rat).Add(free[0], free[1])); res.R.Cmp(want) != 0 {
			t.Errorf("u=%d: R = %v, dynamic program %v", 2*m, res.R, want)
		}
	}
}

// TestHubLineageMatchesClosedForm: given the set A of hubs whose label
// holds, the query fails exactly when no edge inside A is present.
func TestHubLineageMatchesClosedForm(t *testing.T) {
	const h = 8
	db := hubDB(rand.New(rand.NewSource(31)), h)
	res, err := Reliability(bg, db, existQuery, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != "lineage-bdd" {
		t.Errorf("answered by %s, want lineage-bdd", res.Engine)
	}
	one := big.NewRat(1, 1)
	noWitness := new(big.Rat)
	for a := 0; a < 1<<h; a++ {
		pr := big.NewRat(1, 1)
		for x := 0; x < h; x++ {
			if a>>x&1 == 0 {
				pr.Mul(pr, new(big.Rat).Sub(one, db.NuAtom(labelAtom(x))))
				continue
			}
			pr.Mul(pr, db.NuAtom(labelAtom(x)))
			for y := 0; y < h; y++ {
				if x != y && a>>y&1 == 1 {
					pr.Mul(pr, new(big.Rat).Sub(one, db.NuAtom(edgeAtom(x, y))))
				}
			}
		}
		noWitness.Add(noWitness, pr)
	}
	// No edge is observed, so the observed answer is false and R is the
	// probability that it stays false.
	if res.R.Cmp(noWitness) != 0 {
		t.Errorf("R = %v, closed form %v", res.R, noWitness)
	}
}

// TestLineageBDDCancelsDuringCount: the count polls the context too, so
// cancelling at any poll of a run — the ones after the build included —
// ends it with ErrCanceled instead of an answer past the deadline.
func TestLineageBDDCancelsDuringCount(t *testing.T) {
	db := hubDB(rand.New(rand.NewSource(37)), 8)
	polls := &pollCountingCtx{Context: bg}
	if _, err := ReliabilityWith(polls, EngineLineageBDD, db, existQuery, Options{}); err != nil {
		t.Fatal(err)
	}
	inCount := 0
	for k := 0; k < int(polls.polls.Load()); k++ {
		_, err := ReliabilityWith(&cancelAfterCtx{Context: bg, left: k}, EngineLineageBDD, db, existQuery, Options{})
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("cancellation at poll %d: %v, want ErrCanceled", k+1, err)
		} else if strings.Contains(err.Error(), "count canceled") {
			inCount++
		}
	}
	if inCount == 0 {
		t.Errorf("none of the run's %d polls is in Prob", polls.polls.Load())
	}
}

// TestBDDNodeCap pins the lineage BDD node cap folded from the budget:
// a budget cap only ever tightens the engine's own 1<<20.
func TestBDDNodeCap(t *testing.T) {
	for _, tc := range []struct{ budget, want int }{
		{0, 1 << 20},
		{20, 20},
		{1 << 21, 1 << 20},
	} {
		if got := bddNodeCap(Budget{MaxBDDNodes: tc.budget}); got != tc.want {
			t.Errorf("bddNodeCap(MaxBDDNodes %d) = %d, want %d", tc.budget, got, tc.want)
		}
	}
}

// TestKarpLubyPlanCounts pins the Karp–Luby planner on lineages and
// DNFs of the experiments: m terms, Lemma 5.11's worst-case t at
// p = 1/m, and the t planned from the proved coverage bound. Like the
// node counts above these are a pure function of the input, so a
// weaker bound (or one that stops being tried) fails here exactly.
func TestKarpLubyPlanCounts(t *testing.T) {
	star := make([][2]int, 0, 24)
	for leaf := 1; leaf <= 12; leaf++ {
		star = append(star, [2]int{0, leaf}, [2]int{leaf, 0})
	}
	lineage := func(db *unreliable.DB) (prop.DNF, prop.ProbAssignment) {
		d, nu, err := tupleLineage(bg, db, existQuery, logic.Env{})
		if err != nil {
			t.Fatal(err)
		}
		return d, nu
	}
	// E10's near-disjoint pairs and E4's first instance, as #DNF.
	pairs := prop.DNF{NumVars: 24}
	for i := 0; i < 24; i += 2 {
		pairs.Terms = append(pairs.Terms, prop.Term{prop.Pos(i), prop.Pos(i + 1)})
	}
	e4 := workload.RandomKDNF(rand.New(rand.NewSource(1998)), 20, 20, 3)
	hub, hubNu := lineage(hubDB(rand.New(rand.NewSource(31)), 8))
	path, pathNu := lineage(labelledGraphDB(rand.New(rand.NewSource(23)), 33, pathEdges(32), identity))
	starD, starNu := lineage(labelledGraphDB(rand.New(rand.NewSource(23)), 13, star, identity))
	cases := []struct {
		name              string
		d                 prop.DNF
		nu                prop.ProbAssignment // nil: #DNF
		eps, delta        float64
		m, worst, planned int
	}{
		// The bench's lineage-kl request has this shape and accuracy.
		{"hub h=8", hub, hubNu, 0.05, 0.05, 56, 371840, 9397},
		{"path u=64", path, pathNu, 0.05, 0.05, 31, 205840, 104654},
		{"star 12 leaves", starD, starNu, 0.05, 0.05, 24, 159360, 96360},
		{"E10 disjoint pairs", pairs, nil, 0.1, 0.05, 12, 19920, 6225},
		{"E4 20v/20t", e4, nil, 0.05, 0.05, 20, 132800, 22921},
	}
	for _, c := range cases {
		var pl karpluby.Plan
		var err error
		if c.nu == nil {
			pl, err = karpluby.PlanCount(c.d, c.eps, c.delta, karpluby.CountScalar)
		} else {
			pl, err = karpluby.PlanProb(c.d, c.nu, c.eps, c.delta, karpluby.ProbScalar)
		}
		if err != nil {
			t.Fatal(err)
		}
		worst, err := karpluby.SampleSize(c.eps, c.delta, len(c.d.Terms))
		if err != nil {
			t.Fatal(err)
		}
		if len(c.d.Terms) != c.m || worst != c.worst || pl.Samples != c.planned {
			t.Errorf("%s: %d terms, worst-case t %d, planned t %d; want %d, %d, %d",
				c.name, len(c.d.Terms), worst, pl.Samples, c.m, c.worst, c.planned)
		}
	}
}

// unaryExistQuery has one free variable: one lineage, and one diagram,
// per element of the universe.
var unaryExistQuery = logic.MustParse("exists y . E(x,y) & S(y)", nil)

// unarySelfJoinQuery is a k = 1 query outside the safe fragment (a
// self-join on S), so auto tries lineage-bdd before any estimator.
var unarySelfJoinQuery = logic.MustParse("exists y . E(x,y) & S(x) & S(y)", nil)

// tupleNodes compiles every answer tuple's lineage of the unary query f
// on a manager of its own and returns the nodes each allocated.
func tupleNodes(t *testing.T, db *unreliable.DB, f logic.Formula) []int {
	t.Helper()
	lf, _, err := lineageForm(f)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]int, db.A.N)
	for x := range nodes {
		d, _, err := tupleLineage(bg, db, lf, logic.Env{"x": x})
		if err != nil {
			t.Fatal(err)
		}
		mgr := bdd.New(d.NumVars, 0)
		if _, err := mgr.FromDNF(d); err != nil {
			t.Fatal(err)
		}
		nodes[x] = mgr.NumNodes()
	}
	return nodes
}

// TestLineageBDDNodeCapIsPerTuple: the request's one manager is reset
// between answer tuples, so MaxBDDNodes caps each tuple's diagram, not
// their sum. A cap every tuple fits answers exactly although the sum
// exceeds it; one node less stops the largest tuple with
// bdd.ErrTooLarge, and auto falls back past lineage-bdd.
func TestLineageBDDNodeCapIsPerTuple(t *testing.T) {
	db := servedQFreeDB(rand.New(rand.NewSource(47)), 8)
	q := unarySelfJoinQuery
	nodes := tupleNodes(t, db, q)
	largest, sum := 0, 0
	for _, n := range nodes {
		largest, sum = max(largest, n), sum+n
	}
	if sum <= largest+1 {
		t.Fatalf("tuple node counts %v: the instance does not tell a per-tuple cap from a per-request one", nodes)
	}
	want, err := LineageBDD(bg, db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := LineageBDD(bg, db, q, Options{Budget: Budget{MaxBDDNodes: largest}})
	if err != nil {
		t.Fatalf("MaxBDDNodes %d, the largest tuple's %v: %v", largest, nodes, err)
	}
	if got.H.Cmp(want.H) != 0 || got.Guarantee != Exact {
		t.Errorf("capped at %d: H = %v (%v), uncapped %v", largest, got.H, got.Guarantee, want.H)
	}
	we, err := WorldEnum(bg, db, q, Options{MaxEnumAtoms: db.NumUncertain()})
	if err != nil {
		t.Fatal(err)
	}
	if we.H.Cmp(want.H) != 0 {
		t.Errorf("lineage-bdd H = %v, world enumeration %v", want.H, we.H)
	}

	tight := Options{Budget: Budget{MaxBDDNodes: largest - 1}}
	if _, err := LineageBDD(bg, db, q, tight); !errors.Is(err, bdd.ErrTooLarge) {
		t.Errorf("MaxBDDNodes %d: %v, want bdd.ErrTooLarge", largest-1, err)
	}
	tight.MaxEnumAtoms = 1 // no world-enum rung
	tight.Eps = 0.2
	res, err := Reliability(bg, db, q, tight)
	if err != nil {
		t.Fatal(err)
	}
	stopped := false
	for _, step := range res.FallbackTrail {
		stopped = stopped || step.Engine == string(EngineLineageBDD) && strings.Contains(step.Err, bdd.ErrTooLarge.Error())
	}
	if !stopped || res.Engine == "lineage-bdd" {
		t.Errorf("auto under MaxBDDNodes %d: engine %s, trail %+v; want a fallback past lineage-bdd's ErrTooLarge",
			largest-1, res.Engine, res.FallbackTrail)
	}
}

// TestLineageEnginesLeaveNuUnchanged: the lineage engines read the
// snapshot's shared nu values (unreliable.DB.Nu) and its shared 0 and
// 1; none of LineageBDD, LineageKL and the Theorem 5.3 route may write
// to them. They run at once, as a server's workers would, so -race sees
// a write to a shared value as a race.
func TestLineageEnginesLeaveNuUnchanged(t *testing.T) {
	db := servedQFreeDB(rand.New(rand.NewSource(53)), 5)
	opts := Options{Eps: 0.3, Delta: 0.3}
	runs := []func() (Result, error){
		func() (Result, error) { return LineageBDD(bg, db, unaryExistQuery, opts) },
		func() (Result, error) { return LineageKL(bg, db, unaryExistQuery, opts, false) },
		func() (Result, error) { return LineageKL(bg, db, unaryExistQuery, opts, true) },
	}
	var wg sync.WaitGroup
	for i, run := range runs {
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := run(); err != nil {
					t.Errorf("run %d: %v", i, err)
				}
			}()
		}
	}
	wg.Wait()
	for _, r := range db.A.Voc.Rels {
		rel.ForEachTuple(db.A.N, r.Arity, func(tup rel.Tuple) bool {
			a := rel.GroundAtom{Rel: r.Name, Args: tup.Clone()}
			if got, want := db.Nu(a), db.NuAtom(a); got.Cmp(want) != 0 {
				t.Errorf("Nu(%v) = %v, want %v", a, got, want)
			}
			return true
		})
	}
}

// TestLineageBDDBytesPerCall is the allocation ceiling of the exact
// lineage engine on a k = 1 query at n = 16: one manager for the
// request, sized from the lineage, and nu read from the snapshot. With
// a manager per tuple sized from the node budget a call took ≈ 9.56 MB.
func TestLineageBDDBytesPerCall(t *testing.T) {
	const calls, ceiling = 5, 1 << 20
	db := servedQFreeDB(rand.New(rand.NewSource(45)), 16)
	if _, err := LineageBDD(bg, db, unaryExistQuery, Options{}); err != nil { // builds the snapshot's tables
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := LineageBDD(bg, db, unaryExistQuery, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall > ceiling {
		t.Errorf("LineageBDD allocated %d bytes per call, ceiling %d", perCall, ceiling)
	} else {
		t.Logf("%d bytes per call", perCall)
	}
}
