// Benchmarks: one family per experiment of EXPERIMENTS.md (E1..E12).
// `go test -bench=. -benchmem` produces the timing series; the
// cmd/benchrel harness produces the corresponding correctness tables.
package qrel_test

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"qrel/internal/bdd"
	"qrel/internal/core"
	"qrel/internal/datalog"
	"qrel/internal/karpluby"
	"qrel/internal/logic"
	"qrel/internal/mc"
	"qrel/internal/metafinite"
	"qrel/internal/ra"
	"qrel/internal/reductions"
	"qrel/internal/rel"
	"qrel/internal/sharpp"
	"qrel/internal/store"
	"qrel/internal/unreliable"
	"qrel/internal/vm"
	"qrel/internal/workload"
)

const benchSeed = 1998

// BenchmarkE1QuantifierFree measures Proposition 3.1's polynomial
// algorithm across universe sizes: the series must grow polynomially
// (≈ n^k per-tuple work).
func BenchmarkE1QuantifierFree(b *testing.B) {
	f := logic.MustParse("E(x,y) & (S(x) | S(y))", nil)
	for _, n := range []int{8, 16, 32, 64} {
		rng := rand.New(rand.NewSource(benchSeed + int64(n)))
		db := workload.AddUncertainty(rng, workload.RandomStructure(rng, n, 0.2, 0.5), n/2, 10)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.QuantifierFree(context.Background(), db, f, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2ConjunctiveExact measures the exact engines on the
// Proposition 3.2 reduction: world enumeration doubles per variable
// (the #P-hardness made visible) while the lineage BDD tracks the
// instance structure.
func BenchmarkE2ConjunctiveExact(b *testing.B) {
	for _, n := range []int{6, 8, 10, 12} {
		rng := rand.New(rand.NewSource(benchSeed))
		c := reductions.RandomMonotone2CNF(rng, n, n+n/2)
		inst, err := reductions.BuildMon2SatInstance(c)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("world-enum/vars=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.WorldEnum(context.Background(), inst.DB, inst.Query, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("lineage-bdd/vars=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.LineageBDD(context.Background(), inst.DB, inst.Query, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3Oracle measures the Theorem 4.2 #P-oracle simulation as
// the number of uncertain atoms grows (2^u leaves).
func BenchmarkE3Oracle(b *testing.B) {
	query := logic.Prepare(logic.MustParse("forall x . exists y . E(x,y) | S(x)", nil))
	pred := func(s *rel.Structure) (bool, error) { return query.Holds(s, nil) }
	for _, u := range []int{4, 8, 12} {
		rng := rand.New(rand.NewSource(benchSeed + int64(u)))
		db := workload.RandomUDB(rng, 4, u)
		b.Run(fmt.Sprintf("u=%d", u), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sharpp.CountAcceptingPaths(db, pred, 20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4KarpLuby measures the #DNF FPTRAS across ε: cost scales
// with 1/ε² at fixed instance size.
func BenchmarkE4KarpLuby(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	d := workload.RandomKDNF(rng, 30, 40, 3)
	stream := mc.Stream{Src: mc.NewSource(benchSeed)}
	for _, eps := range []float64{0.2, 0.1, 0.05} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := karpluby.CountDNF(context.Background(), d, eps, 0.05, karpluby.CountBatched, stream); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4KarpLubyPar measures the lane-split parallel #DNF FPTRAS:
// the same fixed-lane computation scheduled on 1 versus 8 workers, with
// the zero-allocation per-lane scratch, in both evaluation modes — the
// interpreted per-sample term walk versus the compiled 64-way
// bit-parallel evaluator (identical estimates by construction; the
// samples/sec metric is the compiled path's speedup). Any worker count
// produces the identical estimate; on a multi-core host the 8-worker
// rows show the wall-clock speedup, and on any host the allocs/op
// column shows the scratch reuse.
func BenchmarkE4KarpLubyPar(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	d := workload.RandomKDNF(rng, 30, 40, 3)
	for _, eps := range []float64{0.2, 0.1, 0.05} {
		for _, workers := range []int{1, 8} {
			for _, eval := range []string{"interpreted", "compiled"} {
				kernel := karpluby.CountKernel(karpluby.CountScalar)
				if eval == "compiled" {
					kernel = karpluby.CountBatched
				}
				b.Run(fmt.Sprintf("eps=%g/workers=%d/eval=%s", eps, workers, eval), func(b *testing.B) {
					b.ReportAllocs()
					samples := 0
					for i := 0; i < b.N; i++ {
						res, err := karpluby.CountDNF(context.Background(), d, eps, 0.05, kernel, mc.Stream{Seed: benchSeed, Workers: workers})
						if err != nil {
							b.Fatal(err)
						}
						samples += res.Samples
					}
					if s := b.Elapsed().Seconds(); s > 0 {
						b.ReportMetric(float64(samples)/s, "samples/sec")
					}
				})
			}
		}
	}
}

// BenchmarkE5Thm53Reduce measures the Theorem 5.3 binary-encoding
// construction as the probability bit-length grows.
func BenchmarkE5Thm53Reduce(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	d := workload.RandomKDNF(rng, 4, 3, 2)
	for _, q := range []int64{7, 211, 65521} {
		p := workload.RandomProbs(rng, 4, int(q))
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := karpluby.Reduce(d, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6Lineage measures the Theorem 5.4 pipeline: exact BDD
// versus Karp–Luby FPTRAS on the same conjunctive query.
func BenchmarkE6Lineage(b *testing.B) {
	f := logic.MustParse("exists x y . E(x,y) & S(x) & S(y)", nil)
	for _, n := range []int{8, 16, 32} {
		rng := rand.New(rand.NewSource(benchSeed + int64(n)))
		db := workload.AddUncertainty(rng, workload.RandomStructure(rng, n, 0.2, 0.5), n, 10)
		b.Run(fmt.Sprintf("bdd/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.LineageBDD(context.Background(), db, f, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("karpluby/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.LineageKL(context.Background(), db, f, core.Options{Eps: 0.2, Delta: 0.1, Seed: int64(i)}, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7Absolute measures the absolute-reliability deciders:
// polynomial for quantifier-free queries, witness search for the
// 4-colourability reduction.
func BenchmarkE7Absolute(b *testing.B) {
	qf := logic.MustParse("S(x) & !E(x,x)", nil)
	for _, n := range []int{16, 64} {
		rng := rand.New(rand.NewSource(benchSeed + int64(n)))
		db := workload.AddUncertainty(rng, workload.RandomStructure(rng, n, 0.2, 0.5), n, 10)
		b.Run(fmt.Sprintf("qfree/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.AbsoluteReliability(db, qf, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{4, 5} {
		g := reductions.RandomGraph(rand.New(rand.NewSource(benchSeed)), n, 0.5)
		if g.NumEdges() == 0 {
			g.MustAddEdge(0, 1)
		}
		inst, err := reductions.BuildFourColInstance(g)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("fourcol/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.AbsoluteReliability(inst.DB, inst.Query, core.Options{MaxEnumAtoms: 12}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8MonteCarlo measures the Theorem 5.12 padded estimator
// across ε (cost ∝ 1/ε²).
func BenchmarkE8MonteCarlo(b *testing.B) {
	query := logic.MustParse("forall x . exists y . E(x,y)", nil)
	prep := logic.Prepare(query)
	pred := func(s *rel.Structure) (bool, error) { return prep.Holds(s, nil) }
	rng := rand.New(rand.NewSource(benchSeed))
	db := workload.RandomUDB(rng, 4, 8)
	stream := mc.Stream{Src: mc.NewSource(benchSeed)}
	for _, eps := range []float64{0.2, 0.1} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mc.EstimateNuPadded(context.Background(), mc.PaddedPred(db, pred), 0.25, eps, 0.1, 0, stream); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8MonteCarloPar measures the lane-split parallel padded
// estimator with the zero-allocation world buffer: 1 versus 8 workers
// over the same fixed-lane sample stream (bit-identical estimates), in
// both evaluation modes — the interpreted per-world formula walk
// versus the compiled bytecode evaluated 64 worlds per machine word.
func BenchmarkE8MonteCarloPar(b *testing.B) {
	query := logic.MustParse("forall x . exists y . E(x,y)", nil)
	prep := logic.Prepare(query)
	pred := func(s *rel.Structure) (bool, error) { return prep.Holds(s, nil) }
	rng := rand.New(rand.NewSource(benchSeed))
	db := workload.RandomUDB(rng, 4, 8)
	prog, err := vm.NewCompiler(db).Compile(query, logic.Env{})
	if err != nil {
		b.Fatal(err)
	}
	for _, eps := range []float64{0.2, 0.1} {
		for _, workers := range []int{1, 8} {
			for _, eval := range []string{"interpreted", "compiled"} {
				kernel := mc.PaddedPred(db, pred)
				if eval == "compiled" {
					kernel = mc.PaddedProgram(db, prog)
				}
				b.Run(fmt.Sprintf("eps=%g/workers=%d/eval=%s", eps, workers, eval), func(b *testing.B) {
					b.ReportAllocs()
					samples := 0
					for i := 0; i < b.N; i++ {
						est, err := mc.EstimateNuPadded(context.Background(), kernel, 0.25, eps, 0.1, 0, mc.Stream{Seed: benchSeed, Workers: workers})
						if err != nil {
							b.Fatal(err)
						}
						samples += est.Samples
					}
					if s := b.Elapsed().Seconds(); s > 0 {
						b.ReportMetric(float64(samples)/s, "samples/sec")
					}
				})
			}
		}
	}
}

// BenchmarkE9Metafinite measures the Theorem 6.2 (i) polynomial
// quantifier-free engine across database sizes.
func BenchmarkE9Metafinite(b *testing.B) {
	salary := metafinite.FApp{Fn: "salary", Args: []metafinite.FOTerm{metafinite.V("x")}}
	term := metafinite.Add{L: salary, R: metafinite.NumInt(100)}
	for _, n := range []int{16, 64, 256} {
		rng := rand.New(rand.NewSource(benchSeed + int64(n)))
		u, err := workload.SalaryUDB(rng, n, 0.2)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("qfree/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := metafinite.QuantifierFree(u, term, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE10Ablations measures the design-choice ablations: exact
// Prob-DNF via BDD versus brute force, and weighted Karp–Luby versus
// the Theorem 5.3 route.
func BenchmarkE10Ablations(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	d := workload.RandomKDNF(rng, 16, 16, 3)
	p := workload.RandomProbs(rng, 16, 10)
	b.Run("exact-bdd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mgr := bdd.New(d.NumVars, 0)
			root, err := mgr.FromDNF(d)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := mgr.Prob(root, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact-bruteforce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.ProbBruteForce(p, 24); err != nil {
				b.Fatal(err)
			}
		}
	})
	small := workload.RandomKDNF(rng, 6, 4, 2)
	sp := workload.RandomProbs(rng, 6, 8)
	stream := mc.Stream{Src: mc.NewSource(benchSeed)}
	b.Run("prob-weighted-kl", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := karpluby.ProbDNF(context.Background(), small, sp, 0.1, 0.05, karpluby.ProbBatched, stream); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prob-thm53-route", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := karpluby.ProbViaReduction(context.Background(), small, sp, 0.1, 0.05, karpluby.CountBatched, stream); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE11Datalog measures the Datalog engines on network
// reliability: exact world enumeration (exponential in uncertain
// links) versus Monte Carlo.
func BenchmarkE11Datalog(b *testing.B) {
	prog := datalog.MustParse("Reach(x,y) :- Link(x,y).\nReach(x,z) :- Reach(x,y), Link(y,z).\n")
	voc := rel.MustVocabulary(rel.RelSym{Name: "Link", Arity: 2})
	for _, links := range []int{6, 10, 14} {
		rng := rand.New(rand.NewSource(benchSeed))
		s := rel.MustStructure(6, voc)
		db := unreliable.New(s)
		for db.NumUncertain() < links {
			u, v := rng.Intn(6), rng.Intn(6)
			if u == v {
				continue
			}
			s.MustAdd("Link", u, v)
			db.MustSetError(rel.GroundAtom{Rel: "Link", Args: rel.Tuple{u, v}}, big.NewRat(1, 5))
		}
		q := datalog.Atom{Pred: "Reach", Args: []datalog.Term{datalog.V("x"), datalog.E(0)}}
		b.Run(fmt.Sprintf("exact/links=%d", links), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := datalog.Reliability(db, prog, q, 16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE12SafePlan measures the Dalvi–Suciu safe-plan engine
// against the exact BDD lineage engine on the same hierarchical query
// as the database grows.
func BenchmarkE12SafePlan(b *testing.B) {
	f := logic.MustParse("exists x y . S(x) & E(x,y)", nil)
	for _, n := range []int{32, 128, 512} {
		s := rel.MustStructure(n, workload.GraphVoc())
		db := unreliable.New(s)
		for i := 0; i < n; i++ {
			s.MustAdd("S", i)
			db.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{i}}, big.NewRat(1, 3))
			s.MustAdd("E", i, (i+1)%n)
			db.MustSetError(rel.GroundAtom{Rel: "E", Args: rel.Tuple{i, (i + 1) % n}}, big.NewRat(1, 4))
		}
		b.Run(fmt.Sprintf("safe-plan/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.SafePlan(context.Background(), db, f, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		if n <= 128 {
			b.Run(fmt.Sprintf("lineage-bdd/n=%d", n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.LineageBDD(context.Background(), db, f, core.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkWorldEnumParallel measures the parallel exact engine against
// the sequential one on a 2^14-world instance.
// BenchmarkE13StoreStream measures the streaming scan→filter→join
// pipeline over the two Source implementations: the memory-resident
// structure and the paged store, with the buffer-pool byte budget as
// a dimension. Small pools force evictions on every pass, so the
// paged rows price the page-fault overhead of running under a budget
// smaller than the dataset; the memory row is the floor.
func BenchmarkE13StoreStream(b *testing.B) {
	const n = 256
	voc := rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2}, rel.RelSym{Name: "S", Arity: 1})
	a := rel.MustStructure(n, voc)
	rng := rand.New(rand.NewSource(benchSeed))
	for i := 0; i < 60000; i++ {
		a.MustAdd("E", rng.Intn(n), rng.Intn(n))
	}
	for i := 0; i < 16; i++ {
		a.MustAdd("S", i)
	}
	query := ra.Join{
		L: ra.Select{From: ra.Base{Rel: "E", Attrs: []string{"x", "y"}}, Attr: "x", Other: "y", Elem: -1, Negate: true},
		R: ra.Base{Rel: "S", Attrs: []string{"y"}},
	}
	drain := func(b *testing.B, src ra.Source) int {
		it, _, err := ra.Build(src, query)
		if err != nil {
			b.Fatal(err)
		}
		defer it.Close()
		count := 0
		for {
			_, _, ok, err := it.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				return count
			}
			count++
		}
	}

	b.Run("source=memory", func(b *testing.B) {
		src := ra.StructureSource(a)
		for i := 0; i < b.N; i++ {
			drain(b, src)
		}
	})

	path := filepath.Join(b.TempDir(), "bench.qstore")
	if err := store.BuildFromDB(path, unreliable.New(a), store.Options{PageSize: 4096}, 0, nil); err != nil {
		b.Fatal(err)
	}
	for _, pool := range []int64{64 << 10, 256 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("source=paged/pool=%dKiB", pool>>10), func(b *testing.B) {
			s, err := store.Open(path, store.Options{PoolBytes: pool})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < b.N; i++ {
				drain(b, s)
			}
		})
	}
}

func BenchmarkWorldEnumParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	db := workload.RandomUDB(rng, 4, 14)
	f := logic.MustParse("forall x . exists y . E(x,y)", nil)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.WorldEnum(context.Background(), db, f, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.WorldEnum(context.Background(), db, f, core.Options{Workers: runtime.GOMAXPROCS(0)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
