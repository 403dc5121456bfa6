package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"qrel/internal/logic"
)

// TestWorkersDeterministicAcrossCounts pins the engine-level lane
// contract: with Workers > 0 the result is a function of the seed and
// the fixed lane count only, so every worker count produces the
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
		for _, w := range []int{2, 7} {
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

// TestWorkersLaneFingerprintMismatch requires a snapshot taken on the
// sequential stream to be rejected by a lane-split run and vice versa:
// the estimate depends on the lane count, so silently resuming across
// it would change the answer.
func TestWorkersLaneFingerprintMismatch(t *testing.T) {
	d := randUDB(rand.New(rand.NewSource(53)), 3, 6)
	f := logic.MustParse("E(x,y) & S(x)", nil)
	base := Options{Eps: 0.05, Delta: 0.05, Seed: 33}

	dir := t.TempDir()
	seq := base
	seq.Budget = Budget{MaxSamples: 200}
	seq.Checkpoint = &CheckpointConfig{Store: openStore(t, dir, nil), Every: 64}
	if _, err := MonteCarloDirect(bg, d, f, seq); err != nil {
		t.Fatal(err)
	}

	par := base
	par.Workers = 4
	par.Checkpoint = &CheckpointConfig{Store: openStore(t, dir, nil), Resume: true}
	if _, err := MonteCarloDirect(bg, d, f, par); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("sequential snapshot into parallel run: err = %v, want ErrCheckpointMismatch", err)
	}

	// And the reverse: parallel snapshot into a sequential run.
	dir2 := t.TempDir()
	par2 := base
	par2.Workers = 4
	par2.Budget = Budget{MaxSamples: 600}
	par2.Checkpoint = &CheckpointConfig{Store: openStore(t, dir2, nil), Every: 64}
	if _, err := MonteCarloDirect(bg, d, f, par2); err != nil {
		t.Fatal(err)
	}
	seq2 := base
	seq2.Checkpoint = &CheckpointConfig{Store: openStore(t, dir2, nil), Resume: true}
	if _, err := MonteCarloDirect(bg, d, f, seq2); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("parallel snapshot into sequential run: err = %v, want ErrCheckpointMismatch", err)
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
// kernel of a parallel padded run evaluates each lane in its own
// environment, cloned once when the lane starts — not once per sampled
// world — so quadrupling the samples leaves the allocation count where
// it was. (The query quantifies one variable per block: the
// interpreter's multi-variable blocks allocate a tuple per evaluation,
// which is its business, not the kernel's.)
func TestInterpretedPaddedAllocsIndependentOfSamples(t *testing.T) {
	db, f := goldenInstance(t, 1)
	allocs := func(samples int) float64 {
		opts := Options{Eps: 0.01, Delta: 0.1, Seed: 3, Workers: 2, Eval: EvalInterpreted, Budget: Budget{MaxSamples: samples}}
		return testing.AllocsPerRun(5, func() {
			res, err := MonteCarlo(bg, db, f, opts)
			if err != nil || res.Samples != samples {
				t.Fatalf("run of %d samples: %d drawn, %v", samples, res.Samples, err)
			}
		})
	}
	small, large := allocs(2000), allocs(8000)
	if large-small > 16 {
		t.Errorf("allocations grow with the sample count: %.0f at 2000 samples, %.0f at 8000", small, large)
	}
}
