package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"qrel/internal/logic"
	"qrel/internal/mc"
	"qrel/internal/unreliable"
	"qrel/internal/workload"
)

// TestWorkersDeterministicAcrossCounts pins the engine-level lane
// contract: the result is a function of the seed and the fixed lane
// count only, so every worker count, 0 included, produces the
// byte-identical Result fields.
func TestWorkersDeterministicAcrossCounts(t *testing.T) {
	d := randUDB(rand.New(rand.NewSource(51)), 3, 6)
	f := logic.MustParse("E(x,y) & S(x)", nil)
	base := Options{Eps: 0.2, Delta: 0.1, Seed: 13, Workers: 1}

	engines := map[string]func(opts Options) (Result, error){
		"montecarlo-direct": func(opts Options) (Result, error) { return MonteCarloDirect(bg, d, f, opts) },
		"montecarlo":        func(opts Options) (Result, error) { return MonteCarlo(bg, d, f, opts) },
		"montecarlo-rare":   func(opts Options) (Result, error) { return MonteCarloRare(bg, d, f, opts) },
		"lineage-kl":        func(opts Options) (Result, error) { return LineageKL(bg, d, f, opts, false) },
	}
	for name, run := range engines {
		ref, err := run(base)
		if err != nil {
			t.Fatalf("%s workers=1: %v", name, err)
		}
		for _, w := range []int{0, 2, 7} {
			opts := base
			opts.Workers = w
			got, err := run(opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if got.HFloat != ref.HFloat || got.RFloat != ref.RFloat || got.Samples != ref.Samples {
				t.Errorf("%s workers=%d: H=%v R=%v Samples=%d, workers=1: H=%v R=%v Samples=%d",
					name, w, got.HFloat, got.RFloat, got.Samples, ref.HFloat, ref.RFloat, ref.Samples)
			}
		}
	}
}

// TestWorkersParallelResumeBitIdentical interrupts a parallel direct
// estimate with a sample budget and resumes it: the multi-lane snapshot
// round-trips through the store and the resumed run matches the
// uninterrupted one exactly.
func TestWorkersParallelResumeBitIdentical(t *testing.T) {
	d := randUDB(rand.New(rand.NewSource(52)), 3, 6)
	f := logic.MustParse("E(x,y) & S(x)", nil)
	base := Options{Eps: 0.05, Delta: 0.05, Seed: 21, Workers: 4}

	full, err := MonteCarloDirect(bg, d, f, base)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	interrupted := base
	interrupted.Budget = Budget{MaxSamples: 600}
	interrupted.Checkpoint = &CheckpointConfig{Store: openStore(t, dir, nil), Every: 64}
	if _, err := MonteCarloDirect(bg, d, f, interrupted); err != nil {
		t.Fatal(err)
	}

	resumed := base
	resumed.Checkpoint = &CheckpointConfig{Store: openStore(t, dir, nil), Resume: true}
	res, err := MonteCarloDirect(bg, d, f, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed {
		t.Fatal("resumed run did not report Resumed")
	}
	if res.HFloat != full.HFloat || res.RFloat != full.RFloat || res.Samples != full.Samples {
		t.Fatalf("resumed H=%v R=%v Samples=%d, uninterrupted H=%v R=%v Samples=%d",
			res.HFloat, res.RFloat, res.Samples, full.HFloat, full.RFloat, full.Samples)
	}
}

// TestWorkersLaneFingerprintMismatch: the worker count is outside the
// fingerprint — a snapshot taken under Workers 0 resumes under Workers
// 4 and the reverse, each to the uninterrupted estimate — while the
// lane count is in it: a snapshot of a 4-lane split is rejected by an
// mc.DefaultLanes run, since resuming across lane counts would change
// the answer.
func TestWorkersLaneFingerprintMismatch(t *testing.T) {
	d := randUDB(rand.New(rand.NewSource(53)), 3, 6)
	f := logic.MustParse("E(x,y) & S(x)", nil)
	base := Options{Eps: 0.05, Delta: 0.05, Seed: 33}
	full, err := MonteCarloDirect(bg, d, f, base)
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range [][2]int{{0, 4}, {4, 0}} {
		dir := t.TempDir()
		cut := base
		cut.Workers = w[0]
		cut.Budget = Budget{MaxSamples: 600}
		cut.Checkpoint = &CheckpointConfig{Store: openStore(t, dir, nil), Every: 64}
		if _, err := MonteCarloDirect(bg, d, f, cut); err != nil {
			t.Fatal(err)
		}
		resumed := base
		resumed.Workers = w[1]
		resumed.Checkpoint = &CheckpointConfig{Store: openStore(t, dir, nil), Resume: true}
		res, err := MonteCarloDirect(bg, d, f, resumed)
		if err != nil {
			t.Fatalf("workers %d snapshot into workers %d run: %v", w[0], w[1], err)
		}
		if !res.Resumed || res.RFloat != full.RFloat || res.Samples != full.Samples {
			t.Fatalf("workers %d snapshot into workers %d run: resumed=%v R=%v samples=%d, uninterrupted R=%v samples=%d",
				w[0], w[1], res.Resumed, res.RFloat, res.Samples, full.RFloat, full.Samples)
		}
	}

	dir := t.TempDir()
	four := base
	four.LaneRange = &mc.Range{Lo: 0, Hi: 4, Total: 4}
	four.Checkpoint = &CheckpointConfig{Store: openStore(t, dir, nil), Every: 64}
	if _, err := MonteCarloDirect(bg, d, f, four); err != nil {
		t.Fatal(err)
	}
	eight := base
	eight.Checkpoint = &CheckpointConfig{Store: openStore(t, dir, nil), Resume: true}
	if _, err := MonteCarloDirect(bg, d, f, eight); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("4-lane snapshot into a %d-lane run: err = %v, want ErrCheckpointMismatch", mc.DefaultLanes, err)
	}
}

// TestColdDatabaseWorkers runs every engine with Workers: 4 — in both
// evaluation modes, which between them reach every Par entry point of
// mc and karpluby — on a database nobody has read, and then all of
// them at once on one more cold database the way a server's pool does.
// Each answer must equal the one computed on a warmed copy; run under
// -race, this is the regression test for lanes snapshotting the
// database's atom lists while another lane was still building them.
func TestColdDatabaseWorkers(t *testing.T) {
	warm := randUDB(rand.New(rand.NewSource(53)), 3, 8)
	warm.UncertainAtoms() // forces the atom lists
	f := logic.MustParse("exists y . E(x,y) & S(y)", nil)
	type run struct {
		engine Engine
		eval   string
	}
	var runs []run
	for _, e := range []Engine{EngineWorldEnum, EngineLineageBDD, EngineLineageKL, EngineMonteCarlo, EngineMCDirect, EngineMCRare, EngineAuto} {
		for _, eval := range []string{EvalCompiled, EvalInterpreted} {
			runs = append(runs, run{e, eval})
		}
	}
	opts := func(r run) Options {
		return Options{Eps: 0.2, Delta: 0.1, Seed: 17, Workers: 4, Eval: r.eval}
	}
	same := func(r run, got, want Result) {
		t.Helper()
		if got.HFloat != want.HFloat || got.RFloat != want.RFloat || got.Samples != want.Samples {
			t.Errorf("%s/%s: cold database gave H=%v R=%v samples=%d, warmed H=%v R=%v samples=%d",
				r.engine, r.eval, got.HFloat, got.RFloat, got.Samples, want.HFloat, want.RFloat, want.Samples)
		}
	}
	want := make([]Result, len(runs))
	for i, r := range runs {
		var err error
		if want[i], err = ReliabilityWith(bg, r.engine, warm, f, opts(r)); err != nil {
			t.Fatalf("%s/%s warm: %v", r.engine, r.eval, err)
		}
		got, err := ReliabilityWith(bg, r.engine, warm.Clone(), f, opts(r)) // a clone starts cold
		if err != nil {
			t.Fatalf("%s/%s cold: %v", r.engine, r.eval, err)
		}
		same(r, got, want[i])
	}
	shared := warm.Clone()
	got := make([]Result, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = ReliabilityWith(bg, r.engine, shared, f, opts(r))
		}()
	}
	wg.Wait()
	for i, r := range runs {
		if errs[i] != nil {
			t.Fatalf("%s/%s on the shared cold database: %v", r.engine, r.eval, errs[i])
		}
		same(r, got[i], want[i])
	}
}

// TestInterpretedPaddedAllocsIndependentOfSamples: the interpreted
// kernels prepare the query once per request and evaluate every world
// in a stack frame against a reused world buffer, so a run's allocation
// count grows neither with the worlds it evaluates — sampled by the
// padded, direct and rare estimators, or enumerated for a second-order
// query — nor with the answer tuples of a k = 1 query.
func TestInterpretedPaddedAllocsIndependentOfSamples(t *testing.T) {
	flat := func(t *testing.T, what string, small, large float64) {
		t.Helper()
		if large-small > 16 {
			t.Errorf("allocations grow with %s: %.0f against %.0f", what, small, large)
		}
	}
	run := func(t *testing.T, engine func(context.Context, *unreliable.DB, logic.Formula, Options) (Result, error),
		db *unreliable.DB, f logic.Formula, opts Options) float64 {
		t.Helper()
		return testing.AllocsPerRun(5, func() {
			res, err := engine(bg, db, f, opts)
			if err != nil || (opts.Budget.MaxSamples > 0 && res.Samples != opts.Budget.MaxSamples) {
				t.Fatalf("run of %d samples: %d drawn, %v", opts.Budget.MaxSamples, res.Samples, err)
			}
		})
	}
	db, f := goldenInstance(t, 1)
	for _, c := range []struct {
		name   string
		engine func(context.Context, *unreliable.DB, logic.Formula, Options) (Result, error)
	}{{"padded", MonteCarlo}, {"direct", MonteCarloDirect}, {"rare", MonteCarloRare}} {
		t.Run(c.name, func(t *testing.T) {
			allocs := func(samples int) float64 {
				opts := Options{Eps: 0.001, Delta: 0.1, Seed: 3, Workers: 2, Eval: EvalInterpreted, Budget: Budget{MaxSamples: samples}}
				return run(t, c.engine, db, f, opts)
			}
			flat(t, "the sample count (2000 against 8000)", allocs(2000), allocs(8000))
		})
	}
	t.Run("world-enum-so", func(t *testing.T) {
		allocs := func(uncertain int) float64 {
			var src strings.Builder
			src.WriteString("universe 4\nrel E/2\n")
			for i := 0; i < uncertain; i++ {
				fmt.Fprintf(&src, "E %d %d err 1/3\n", i/4, i%4)
			}
			db, err := unreliable.ParseDB(strings.NewReader(src.String()))
			if err != nil {
				t.Fatal(err)
			}
			f := logic.MustParse("existsrel C/1 . forall x y . E(x,y) -> (C(x) <-> !C(y))", db.A.Voc)
			return run(t, WorldEnum, db, f, Options{Eval: EvalInterpreted})
		}
		flat(t, "the world count (2^8 against 2^10)", allocs(8), allocs(10))
	})
	t.Run("answer-tuples", func(t *testing.T) {
		allocs := func(n int) float64 {
			var src strings.Builder
			// The facts stay put as the universe grows, so every world
			// buffer clones the same structure.
			fmt.Fprintf(&src, "universe %d\nrel E/2\nrel S/1\n", n)
			for i := 0; i+1 < 8; i++ {
				fmt.Fprintf(&src, "E %d %d\n", i, i+1)
			}
			src.WriteString("S 1 err 1/2\nS 2 err 1/3\nS 3 err 1/4\nE 0 2 err 1/5\n")
			db, err := unreliable.ParseDB(strings.NewReader(src.String()))
			if err != nil {
				t.Fatal(err)
			}
			// Almost every element answers, so ψ^B grows with n.
			f := logic.MustParse("!(exists y . E(x,y) & S(y))", db.A.Voc)
			opts := Options{Eps: 0.001, Delta: 0.1, Seed: 3, Workers: 2, Eval: EvalInterpreted, Budget: Budget{MaxSamples: 1000}}
			return run(t, MonteCarloDirect, db, f, opts)
		}
		flat(t, "the answer tuples (8 against 32)", allocs(8), allocs(32))
	})
}

// BenchmarkWorldEnumParallel measures the parallel exact engine against
// the sequential one on a 2^14-world instance.
func BenchmarkWorldEnumParallel(b *testing.B) {
	db := workload.RandomUDB(rand.New(rand.NewSource(1998)), 4, 14)
	f := logic.MustParse("forall x . exists y . E(x,y)", nil)
	for _, workers := range []int{0, runtime.GOMAXPROCS(0)} {
		name := "sequential"
		if workers > 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := WorldEnum(context.Background(), db, f, Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
