package mc_test

import (
	"context"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"qrel/internal/logic"
	"qrel/internal/mc"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
	"qrel/internal/vm"
	"qrel/internal/workload"
)

// Bit-identity of the compiled estimators against the interpreted
// ones: same seed, same lanes — byte-for-byte the same estimate, the
// same published LoopStates, the same lane aggregates and attestation
// digests, for every worker count. These tests pin the tentpole
// contract that lets compiled and interpreted replicas interoperate
// in one cluster.

func compiledTestDB(t *testing.T, seed int64) *unreliable.DB {
	t.Helper()
	return workload.RandomUDB(rand.New(rand.NewSource(seed)), 4, 8)
}

func mustParse(t *testing.T, db *unreliable.DB, src string) logic.Formula {
	t.Helper()
	f, err := logic.Parse(src, db.A.Voc)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return f
}

func mustCompile(t *testing.T, db *unreliable.DB, f logic.Formula) *vm.Program {
	t.Helper()
	p, err := vm.Compile(db, f, logic.Env{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func collectCkpt(every int, dst *[]mc.LoopState) *mc.Ckpt {
	return &mc.Ckpt{Every: every, Save: func(st mc.LoopState) error {
		*dst = append(*dst, st)
		return nil
	}}
}

func TestCompiledPaddedBitIdentical(t *testing.T) {
	db := compiledTestDB(t, 11)
	q := mustParse(t, db, "forall x . exists y . E(x,y)")
	prog := mustCompile(t, db, q)
	pred := func(b *rel.Structure) (bool, error) { return logic.EvalSentence(b, q) }
	ctx := context.Background()
	for _, w := range []int{1, 2, 4, 7} {
		var intSaves, compSaves []mc.LoopState
		want, err := mc.EstimateNuPadded(ctx, mc.PaddedPred(db, pred), 0, 0.2, 0.1, 0, mc.Stream{Seed: 1998, Workers: w, Ckpt: collectCkpt(101, &intSaves)})
		if err != nil {
			t.Fatalf("workers=%d interpreted: %v", w, err)
		}
		got, err := mc.EstimateNuPadded(ctx, mc.PaddedProgram(db, prog), 0, 0.2, 0.1, 0, mc.Stream{Seed: 1998, Workers: w, Ckpt: collectCkpt(101, &compSaves)})
		if err != nil {
			t.Fatalf("workers=%d compiled: %v", w, err)
		}
		if got != want {
			t.Fatalf("workers=%d: compiled estimate %+v != interpreted %+v", w, got, want)
		}
		if len(intSaves) == 0 || len(compSaves) == 0 {
			t.Fatalf("workers=%d: no checkpoints published", w)
		}
		if !reflect.DeepEqual(intSaves[len(intSaves)-1], compSaves[len(compSaves)-1]) {
			t.Fatalf("workers=%d: final snapshots differ:\n%+v\n%+v", w, intSaves[len(intSaves)-1], compSaves[len(compSaves)-1])
		}
		if w == 1 && !reflect.DeepEqual(intSaves, compSaves) {
			t.Fatalf("one-goroutine snapshot streams differ:\n%+v\n%+v", intSaves, compSaves)
		}
	}
}

// meanFixture returns the interpreted statistic and its compiled form
// for a boolean sentence (the 0-ary answer-set symmetric difference).
func meanFixture(t *testing.T, db *unreliable.DB, src string) (func(*rel.Structure) (float64, error), *mc.CompiledMean) {
	q := mustParse(t, db, src)
	obs, err := logic.EvalSentence(db.A, q)
	if err != nil {
		t.Fatalf("observed eval: %v", err)
	}
	stat := func(b *rel.Structure) (float64, error) {
		v, err := logic.EvalSentence(b, q)
		if err != nil {
			return 0, err
		}
		if v != obs {
			return 1, nil
		}
		return 0, nil
	}
	cm := &mc.CompiledMean{Progs: []*vm.Program{mustCompile(t, db, q)}, Base: []bool{obs}, NormF: 1}
	return stat, cm
}

func TestCompiledMeanBitIdentical(t *testing.T) {
	db := compiledTestDB(t, 13)
	stat, cm := meanFixture(t, db, "exists x y . E(x,y) & E(y,x)")
	ctx := context.Background()
	for _, w := range []int{1, 2, 4, 7} {
		var intSaves, compSaves []mc.LoopState
		want, _, err := mc.EstimateMean(ctx, mc.MeanKernel(db, stat), 0.05, 0.1, 0, mc.Stream{Seed: 1998, Workers: w, Ckpt: collectCkpt(53, &intSaves)})
		if err != nil {
			t.Fatalf("workers=%d interpreted: %v", w, err)
		}
		got, _, err := mc.EstimateMean(ctx, cm.Kernel(db), 0.05, 0.1, 0, mc.Stream{Seed: 1998, Workers: w, Ckpt: collectCkpt(53, &compSaves)})
		if err != nil {
			t.Fatalf("workers=%d compiled: %v", w, err)
		}
		if got != want {
			t.Fatalf("workers=%d: compiled estimate %+v != interpreted %+v", w, got, want)
		}
		if !reflect.DeepEqual(intSaves[len(intSaves)-1], compSaves[len(compSaves)-1]) {
			t.Fatalf("workers=%d: final snapshots differ", w)
		}
		if w == 1 && !reflect.DeepEqual(intSaves, compSaves) {
			t.Fatalf("one-goroutine snapshot streams differ")
		}
	}
}

func TestCompiledMeanRangeBitIdentical(t *testing.T) {
	db := compiledTestDB(t, 17)
	stat, cm := meanFixture(t, db, "forall x . exists y . E(x,y)")
	ctx := context.Background()
	for _, r := range []mc.Range{{Lo: 0, Hi: 3, Total: 8}, {Lo: 3, Hi: 8, Total: 8}, {Lo: 0, Hi: 8, Total: 8}} {
		s := mc.Stream{Seed: 1998, Range: &r, Workers: 3}
		wantEst, want, err := mc.EstimateMean(ctx, mc.MeanKernel(db, stat), 0.1, 0.1, 0, s)
		if err != nil {
			t.Fatalf("range %v interpreted: %v", r, err)
		}
		gotEst, got, err := mc.EstimateMean(ctx, cm.Kernel(db), 0.1, 0.1, 0, s)
		if err != nil {
			t.Fatalf("range %v compiled: %v", r, err)
		}
		if gotEst != wantEst || !reflect.DeepEqual(got, want) {
			t.Fatalf("range %v: compiled result differs:\n%+v\n%+v", r, got, want)
		}
		if dg, dw := mc.RangeDigest(got), mc.RangeDigest(want); dg != dw {
			t.Fatalf("range %v: digest %s != %s", r, dg, dw)
		}
	}
}

// TestCompiledResumesInterpretedCheckpoint proves snapshot
// interchange across eval modes: a snapshot written mid-run by the
// interpreted estimator resumes under the compiled one
// (and vice versa) with the final estimate byte-identical to an
// uninterrupted run.
func TestCompiledResumesInterpretedCheckpoint(t *testing.T) {
	db := compiledTestDB(t, 19)
	stat, cm := meanFixture(t, db, "exists y . E(0,y) & S(y)")
	ctx := context.Background()
	var saves []mc.LoopState
	want, _, err := mc.EstimateMean(ctx, mc.MeanKernel(db, stat), 0.05, 0.1, 0, mc.Stream{Seed: 1998, Ckpt: collectCkpt(37, &saves)})
	if err != nil {
		t.Fatalf("interpreted full run: %v", err)
	}
	if len(saves) < 3 {
		t.Fatalf("want several periodic snapshots, got %d", len(saves))
	}
	mid := saves[1]
	got, _, err := mc.EstimateMean(ctx, cm.Kernel(db), 0.05, 0.1, 0, mc.Stream{Seed: 1998, Ckpt: &mc.Ckpt{Resume: &mid}})
	if err != nil {
		t.Fatalf("compiled resume: %v", err)
	}
	if got != want {
		t.Fatalf("compiled resume of interpreted snapshot: %+v != %+v", got, want)
	}
	// And the reverse direction: compiled writes, interpreted resumes.
	var compSaves []mc.LoopState
	if _, _, err := mc.EstimateMean(ctx, cm.Kernel(db), 0.05, 0.1, 0, mc.Stream{Seed: 1998, Ckpt: collectCkpt(37, &compSaves)}); err != nil {
		t.Fatalf("compiled full run: %v", err)
	}
	mid2 := compSaves[1]
	got2, _, err := mc.EstimateMean(ctx, mc.MeanKernel(db, stat), 0.05, 0.1, 0, mc.Stream{Seed: 1998, Ckpt: &mc.Ckpt{Resume: &mid2}})
	if err != nil {
		t.Fatalf("interpreted resume: %v", err)
	}
	if got2 != want {
		t.Fatalf("interpreted resume of compiled snapshot: %+v != %+v", got2, want)
	}
}

// TestCompiledSequentialMatchesInterpreted covers the padded kernels
// with every lane on the calling goroutine (Workers 0).
func TestCompiledSequentialMatchesInterpreted(t *testing.T) {
	db := compiledTestDB(t, 23)
	q := mustParse(t, db, "forall x . S(x) -> exists y . E(x,y)")
	prog := mustCompile(t, db, q)
	pred := func(b *rel.Structure) (bool, error) { return logic.EvalSentence(b, q) }
	ctx := context.Background()
	want, err := mc.EstimateNuPadded(ctx, mc.PaddedPred(db, pred), 0, 0.25, 0.1, 0, mc.Stream{Seed: 77})
	if err != nil {
		t.Fatalf("interpreted: %v", err)
	}
	got, err := mc.EstimateNuPadded(ctx, mc.PaddedProgram(db, prog), 0, 0.25, 0.1, 0, mc.Stream{Seed: 77})
	if err != nil {
		t.Fatalf("compiled: %v", err)
	}
	if got != want {
		t.Fatalf("one-goroutine compiled %+v != interpreted %+v", got, want)
	}
}

// fuzzQueries are the sentences FuzzBlockDraw samples under.
var fuzzQueries = []string{
	"exists x y . E(x,y) & E(y,x)",
	"forall x . exists y . E(x,y)",
	"exists x . S(x) & !E(x,x)",
	"forall x . S(x) -> exists y . E(x,y) & S(y)",
}

// hostileMu draws a flip probability at the edges of the 64-bit
// threshold: a power of two down to 2⁻⁷⁰, one part in 2ᵏ short of 1, a
// ratio over a 61-bit denominator, or an ordinary tenth.
func hostileMu(rng *rand.Rand) *big.Rat {
	one := big.NewInt(1)
	switch rng.Intn(4) {
	case 0:
		return new(big.Rat).SetFrac(one, new(big.Int).Lsh(one, uint(1+rng.Intn(70))))
	case 1:
		den := new(big.Int).Lsh(one, uint(1+rng.Intn(62)))
		return new(big.Rat).SetFrac(new(big.Int).Sub(den, one), den)
	case 2:
		den := new(big.Int).SetUint64(1<<61 - 1 - uint64(rng.Intn(1000)))
		return new(big.Rat).SetFrac(big.NewInt(1+rng.Int63n(den.Int64()-1)), den)
	default:
		return big.NewRat(int64(1+rng.Intn(9)), 10)
	}
}

// FuzzBlockDraw is the differential of the block streams: on a random
// database with hostile flip probabilities, the compiled kernel and the
// interpreted one must give the byte-identical estimate — and, for the
// mean, the identical lane aggregates — for the mean, padded and
// rare-event estimators, under a random sample budget (so short last
// blocks), with the lanes on one goroutine or on two.
func FuzzBlockDraw(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(6), uint8(0), uint16(700), false)
	f.Add(int64(2), uint8(4), uint8(12), uint8(1), uint16(65), true)
	f.Add(int64(3), uint8(2), uint8(1), uint8(2), uint16(1), true)
	f.Add(int64(4), uint8(3), uint8(9), uint8(3), uint16(1999), false)
	f.Fuzz(func(t *testing.T, seed int64, n, u, query uint8, budget uint16, parallel bool) {
		rng := rand.New(rand.NewSource(seed))
		db := workload.RandomUDB(rng, 2+int(n%3), int(u%16))
		for _, a := range db.UncertainAtoms() {
			if rng.Intn(2) == 0 {
				db.MustSetError(a, hostileMu(rng))
			}
		}
		src := fuzzQueries[int(query)%len(fuzzQueries)]
		stat, cm := meanFixture(t, db, src)
		q := mustParse(t, db, src)
		prog := mustCompile(t, db, q)
		pred := func(b *rel.Structure) (bool, error) { return logic.EvalSentence(b, q) }
		stream := func() mc.Stream {
			if parallel {
				return mc.Stream{Seed: seed, Workers: 2}
			}
			return mc.Stream{Seed: seed}
		}
		ctx := context.Background()
		maxSamples := 1 + int(budget)%2000

		want, wantAggs, err := mc.EstimateMean(ctx, mc.MeanKernel(db, stat), 0.05, 0.1, maxSamples, stream())
		if err != nil {
			t.Fatal(err)
		}
		got, gotAggs, err := mc.EstimateMean(ctx, cm.Kernel(db), 0.05, 0.1, maxSamples, stream())
		if err != nil {
			t.Fatal(err)
		}
		if got != want || !reflect.DeepEqual(gotAggs, wantAggs) {
			t.Fatalf("mean: compiled %+v %+v, interpreted %+v %+v", got, gotAggs, want, wantAggs)
		}

		wantP, err := mc.EstimateNuPadded(ctx, mc.PaddedPred(db, pred), 0, 0.2, 0.1, maxSamples, stream())
		if err != nil {
			t.Fatal(err)
		}
		gotP, err := mc.EstimateNuPadded(ctx, mc.PaddedProgram(db, prog), 0, 0.2, 0.1, maxSamples, stream())
		if err != nil {
			t.Fatal(err)
		}
		if gotP != wantP {
			t.Fatalf("padded: compiled %+v, interpreted %+v", gotP, wantP)
		}

		wantR, err := mc.EstimateMeanRare(ctx, db, mc.MeanKernel(db, stat), 0.01, 0.1, maxSamples, stream())
		if err != nil {
			t.Fatal(err)
		}
		gotR, err := mc.EstimateMeanRare(ctx, db, cm.Kernel(db), 0.01, 0.1, maxSamples, stream())
		if err != nil {
			t.Fatal(err)
		}
		if gotR != wantR {
			t.Fatalf("rare: compiled %+v, interpreted %+v", gotR, wantR)
		}
	})
}
