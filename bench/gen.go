package main

import (
	"math/big"
	"math/rand"

	"qrel"
	"qrel/internal/prop"
)

// The benchmark owns its input generators: every input is a pure
// function of -seed and does not drift when internal/workload changes.
//
// The seed drives error probabilities, tuple positions and sampling
// seeds — never a shape (universe size, number of uncertain atoms,
// graph topology). Engine cost depends on the shape, so runs at
// different seeds measure the same amount of work, and each instance's
// reliability stays inside [0.5, 0.98] by construction.

// sizes are the shape parameters of every generated instance. fullSizes
// is what the benchmark measures; smokeSizes is the -smoke mode the
// unit test runs in well under a second.
type sizes struct {
	QFreeN    int // universe of the quantifier-free binary instance
	ChainN    int // universe of the hierarchical chain instance
	ExistPath int // path edges of the small existential instance (u = 2·ExistPath)
	Hubs      int // hubs of the large existential instance (u = Hubs²)
	CycleN    int // universe of the FO cycle instance (u = CycleN)
	FanN      int // universe of the sampling instance (u = 2·FanN)
	ServeN    int // universe of the served quantifier-free instance
	ServeHubs int // hubs of the served existential instance

	StoreN, StoreDraws, StoreUncertain, StoreBatch int
	PoolFit, PoolSmall                             int64

	EpsTight, EpsLoose, EpsKL float64 // sampling accuracies
	ServeRate                 int     // open-loop requests per second
}

var fullSizes = sizes{
	QFreeN: 48, ChainN: 256, ExistPath: 6, Hubs: 8, CycleN: 12, FanN: 32, ServeN: 40, ServeHubs: 8,
	StoreN: 1024, StoreDraws: 400000, StoreUncertain: 2000, StoreBatch: 20000,
	PoolFit: 8 << 20, PoolSmall: 256 << 10,
	EpsTight: 0.005, EpsLoose: 0.02, EpsKL: 0.05,
	ServeRate: 100,
}

var smokeSizes = sizes{
	QFreeN: 10, ChainN: 24, ExistPath: 3, Hubs: 3, CycleN: 6, FanN: 8, ServeN: 8, ServeHubs: 3,
	StoreN: 64, StoreDraws: 3000, StoreUncertain: 50, StoreBatch: 500,
	PoolFit: 1 << 20, PoolSmall: 16 << 10,
	EpsTight: 0.05, EpsLoose: 0.1, EpsKL: 0.2,
	ServeRate: 100,
}

// subRNG derives the generator of the idx-th instance from the run
// seed, so adding an instance never shifts the inputs of another.
func subRNG(seed int64, idx int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(idx)))
}

func graphVoc() *qrel.Vocabulary {
	return qrel.MustVocabulary(qrel.RelSym{Name: "E", Arity: 2}, qrel.RelSym{Name: "S", Arity: 1})
}

func edge(x, y int) qrel.GroundAtom {
	return qrel.GroundAtom{Rel: "E", Args: qrel.Tuple{x, y}}
}

func label(x int) qrel.GroundAtom { return qrel.GroundAtom{Rel: "S", Args: qrel.Tuple{x}} }

// frac draws a probability num/den with num uniform in [lo, hi].
func frac(rng *rand.Rand, lo, hi, den int) *big.Rat {
	return big.NewRat(int64(lo+rng.Intn(hi-lo+1)), int64(den))
}

// warm forces the lazily built uncertain-atom caches single-threaded.
// ROADMAP item 0: (*DB).refresh() races under concurrent lane set-up,
// so no generated DB may reach a Workers > 0 call cold. server.Register
// does the same.
func warm(db *qrel.DB) *qrel.DB {
	db.NumUncertain()
	return db
}

// qfreeDB is a dense random graph for the quantifier-free query
// qfreeQuery: every fourth edge slot and every second label is
// uncertain with error 1/10..4/10.
func qfreeDB(rng *rand.Rand, n int) *qrel.DB {
	s := qrel.MustStructure(n, graphVoc())
	db := qrel.NewDB(s)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.3 {
				s.MustAdd("E", i, j)
			}
			if (i*n+j)%4 == 0 {
				db.MustSetError(edge(i, j), frac(rng, 1, 4, 10))
			}
		}
		if rng.Float64() < 0.5 {
			s.MustAdd("S", i)
		}
		if i%2 == 0 {
			db.MustSetError(label(i), frac(rng, 1, 4, 10))
		}
	}
	return warm(db)
}

const qfreeQuery = "E(x,y) & S(y) & !S(x)"

// chainDB is a directed chain 0→1→…→n-1 for the hierarchical query
// chainQuery. Edges are observed with error 1/10..3/10; no label is
// observed but each may be in the actual database with a probability
// that keeps the expected number of witnesses near 0.3, so the
// observed answer (false) is right about three times in four.
func chainDB(rng *rand.Rand, n int) *qrel.DB {
	s := qrel.MustStructure(n, graphVoc())
	db := qrel.NewDB(s)
	for i := 0; i+1 < n; i++ {
		s.MustAdd("E", i, i+1)
		db.MustSetError(edge(i, i+1), frac(rng, 1, 3, 10))
		db.MustSetError(label(i), big.NewRat(1, int64(5*n/2+rng.Intn(n/2+1))))
	}
	return warm(db)
}

const chainQuery = "exists x y . S(x) & E(x,y)"

// existQuery is the Boolean existential query with a self-join on S:
// outside the safe fragment, so auto abandons safe-plan and then picks
// world-enum (u ≤ 16) or lineage-bdd.
const existQuery = "exists x y . E(x,y) & S(x) & S(y)"

// existPathDB is a path of m observed edges with observed labels on
// its first m nodes, all 2m atoms uncertain.
func existPathDB(rng *rand.Rand, m int) *qrel.DB {
	s := qrel.MustStructure(m+1, graphVoc())
	db := qrel.NewDB(s)
	for i := 0; i < m; i++ {
		s.MustAdd("E", i, i+1)
		s.MustAdd("S", i)
		db.MustSetError(edge(i, i+1), frac(rng, 1, 4, 10))
		db.MustSetError(label(i), frac(rng, 1, 3, 10))
	}
	return warm(db)
}

// existHubDB has h hubs whose labels are observed with error near 1/2
// and whose h·(h-1) mutual edges are unobserved but present in the
// actual database with probability 1/40..1/25: u = h². The lineage BDD
// stays narrow (labels first, then one "already satisfied" bit per
// label subset), which is what lets lineage-bdd answer at u = 64.
func existHubDB(rng *rand.Rand, h int) *qrel.DB {
	s := qrel.MustStructure(h+4, graphVoc())
	db := qrel.NewDB(s)
	for x := 0; x < h; x++ {
		s.MustAdd("S", x)
		db.MustSetError(label(x), frac(rng, 4, 6, 10))
		for y := 0; y < h; y++ {
			if x != y {
				db.MustSetError(edge(x, y), big.NewRat(1, int64(25+rng.Intn(16))))
			}
		}
	}
	return warm(db)
}

// cycleDB is a directed n-cycle whose n edges are each wrong with
// probability 1/30..1/15; cycleQuery holds on the observed database
// and in a world exactly when no edge was lost.
func cycleDB(rng *rand.Rand, n int) *qrel.DB {
	s := qrel.MustStructure(n, graphVoc())
	db := qrel.NewDB(s)
	for i := 0; i < n; i++ {
		s.MustAdd("E", i, (i+1)%n)
		db.MustSetError(edge(i, (i+1)%n), big.NewRat(1, int64(15+rng.Intn(16))))
	}
	return warm(db)
}

const cycleQuery = "forall x . exists y . E(x,y)"

// fanStep is the second out-neighbour offset of fanDB.
const fanStep = 5

// fanDB gives every node two observed out-edges (to x+1 and x+fanStep),
// each wrong with probability 1/20..3/20. cycleQuery on it is a
// first-order query with u = 2n uncertain atoms — beyond every exact
// engine, so the sampling engines are the only way — yet its
// reliability has a closed form (out-edge sets are disjoint).
func fanDB(rng *rand.Rand, n int) *qrel.DB {
	s := qrel.MustStructure(n, graphVoc())
	db := qrel.NewDB(s)
	for x := 0; x < n; x++ {
		for _, y := range []int{(x + 1) % n, (x + fanStep) % n} {
			s.MustAdd("E", x, y)
			db.MustSetError(edge(x, y), frac(rng, 1, 3, 20))
		}
	}
	return warm(db)
}

// storeDB is the large stored database: draws random edge slots over n
// elements (duplicates collapse), 16 labels, and `uncertain` uncertain
// edge slots.
func storeDB(rng *rand.Rand, n, draws, uncertain int) *qrel.DB {
	s := qrel.MustStructure(n, graphVoc())
	for i := 0; i < draws; i++ {
		s.MustAdd("E", rng.Intn(n), rng.Intn(n))
	}
	for i := 0; i < 16 && i < n; i++ {
		s.MustAdd("S", i)
	}
	db := qrel.NewDB(s)
	for db.NumUncertain() < uncertain {
		db.MustSetError(edge(rng.Intn(n), rng.Intn(n)), frac(rng, 1, 9, 10))
	}
	return warm(db)
}

// kDNF draws a DNF over `vars` variables: `terms` terms of k distinct
// literals each, negated with probability one half.
func kDNF(rng *rand.Rand, vars, terms, k int) prop.DNF {
	d := prop.DNF{NumVars: vars}
	for i := 0; i < terms; i++ {
		var t prop.Term
		for _, v := range rng.Perm(vars)[:k] {
			t = append(t, prop.Lit{Var: v, Neg: rng.Intn(2) == 0})
		}
		d.Terms = append(d.Terms, t)
	}
	return d
}
