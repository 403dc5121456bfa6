package karpluby

import (
	"context"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"qrel/internal/mc"
	"qrel/internal/prop"
)

// Bit-identity of the batched (bit-parallel) Karp–Luby kernels against
// the scalar ones: same stream — the same hit counts, estimates, and
// published snapshots.

func randProbs(rng *rand.Rand, n int) prop.ProbAssignment {
	p := make(prop.ProbAssignment, n)
	for i := range p {
		p[i] = big.NewRat(int64(1+rng.Intn(9)), 10)
	}
	return p
}

func TestCountDNFCompiledBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		d := randDNF(rng, 3+rng.Intn(10), 1+rng.Intn(6), 3)
		want, err := CountDNF(bg, d, 0.3, 0.2, CountScalar, seeded(99))
		if err != nil {
			t.Fatalf("interpreted: %v", err)
		}
		got, err := CountDNF(bg, d, 0.3, 0.2, CountBatched, seeded(99))
		if err != nil {
			t.Fatalf("compiled: %v", err)
		}
		if !sameCount(got, want) {
			t.Fatalf("trial %d: compiled %v/%d != interpreted %v/%d", trial, got.Estimate, got.Hits, want.Estimate, want.Hits)
		}
	}
}

func TestCountDNFParCompiledBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := randDNF(rng, 12, 6, 3)
	ctx := context.Background()
	var base CountResult
	for wi, w := range []int{1, 2, 4, 7} {
		var intSaves, compSaves []mc.LoopState
		collect := func(dst *[]mc.LoopState) *mc.Ckpt {
			return &mc.Ckpt{Every: 101, Save: func(st mc.LoopState) error {
				*dst = append(*dst, st)
				return nil
			}}
		}
		want, err := CountDNF(ctx, d, 0.1, 0.2, CountScalar, mc.Stream{Seed: 1998, Workers: w, Ckpt: collect(&intSaves)})
		if err != nil {
			t.Fatalf("workers=%d interpreted: %v", w, err)
		}
		got, err := CountDNF(ctx, d, 0.1, 0.2, CountBatched, mc.Stream{Seed: 1998, Workers: w, Ckpt: collect(&compSaves)})
		if err != nil {
			t.Fatalf("workers=%d compiled: %v", w, err)
		}
		if !sameCount(got, want) {
			t.Fatalf("workers=%d: compiled %v/%d != interpreted %v/%d", w, got.Estimate, got.Hits, want.Estimate, want.Hits)
		}
		if !reflect.DeepEqual(intSaves[len(intSaves)-1], compSaves[len(compSaves)-1]) {
			t.Fatalf("workers=%d: final snapshots differ", w)
		}
		if w == 1 && !reflect.DeepEqual(intSaves, compSaves) {
			t.Fatal("sequential snapshot streams differ")
		}
		if wi == 0 {
			base = want
		} else if !sameCount(want, base) {
			t.Fatalf("workers=%d interpreted drifted from workers=1", w)
		}
	}
}

// TestCountDNFCompiledResumesInterpreted proves snapshot interchange:
// an interpreted mid-run snapshot resumed by the compiled estimator
// (and vice versa) finishes byte-identical to the uninterrupted run.
func TestCountDNFCompiledResumesInterpreted(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := randDNF(rng, 10, 5, 3)
	var saves []mc.LoopState
	want, err := CountDNF(bg, d, 0.3, 0.2, CountScalar, mc.Stream{Seed: 7, Ckpt: &mc.Ckpt{Every: 53, Save: func(st mc.LoopState) error {
		saves = append(saves, st)
		return nil
	}}})
	if err != nil {
		t.Fatalf("interpreted full run: %v", err)
	}
	if len(saves) < 3 {
		t.Fatalf("want several periodic snapshots, got %d", len(saves))
	}
	mid := saves[1]
	got, err := CountDNF(bg, d, 0.3, 0.2, CountBatched, mc.Stream{Seed: 7, Ckpt: &mc.Ckpt{Resume: &mid}})
	if err != nil {
		t.Fatalf("compiled resume: %v", err)
	}
	if !sameCount(got, want) {
		t.Fatalf("compiled resume of interpreted snapshot: %v/%d != %v/%d", got.Estimate, got.Hits, want.Estimate, want.Hits)
	}
	var compSaves []mc.LoopState
	if _, err := CountDNF(bg, d, 0.3, 0.2, CountBatched, mc.Stream{Seed: 7, Ckpt: &mc.Ckpt{Every: 53, Save: func(st mc.LoopState) error {
		compSaves = append(compSaves, st)
		return nil
	}}}); err != nil {
		t.Fatalf("compiled full run: %v", err)
	}
	mid2 := compSaves[1]
	got2, err := CountDNF(bg, d, 0.3, 0.2, CountScalar, mc.Stream{Seed: 7, Ckpt: &mc.Ckpt{Resume: &mid2}})
	if err != nil {
		t.Fatalf("interpreted resume: %v", err)
	}
	if !sameCount(got2, want) {
		t.Fatalf("interpreted resume of compiled snapshot differs")
	}
}

func TestProbDNFCompiledBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		d := randDNF(rng, 3+rng.Intn(10), 1+rng.Intn(6), 3)
		p := randProbs(rng, d.NumVars)
		want, err := ProbDNF(bg, d, p, 0.3, 0.2, ProbScalar, seeded(42))
		if err != nil {
			t.Fatalf("interpreted: %v", err)
		}
		got, err := ProbDNF(bg, d, p, 0.3, 0.2, ProbBatched, seeded(42))
		if err != nil {
			t.Fatalf("compiled: %v", err)
		}
		if !sameCount(got, want) {
			t.Fatalf("trial %d: compiled %v/%d != interpreted %v/%d", trial, got.Estimate, got.Hits, want.Estimate, want.Hits)
		}
	}
}

func TestProbDNFParCompiledBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	d := randDNF(rng, 12, 6, 3)
	p := randProbs(rng, d.NumVars)
	ctx := context.Background()
	for _, w := range []int{1, 2, 4, 7} {
		want, err := ProbDNF(ctx, d, p, 0.3, 0.2, ProbScalar, mc.Stream{Seed: 1998, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d interpreted: %v", w, err)
		}
		got, err := ProbDNF(ctx, d, p, 0.3, 0.2, ProbBatched, mc.Stream{Seed: 1998, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d compiled: %v", w, err)
		}
		if !sameCount(got, want) {
			t.Fatalf("workers=%d: compiled %v/%d != interpreted %v/%d", w, got.Estimate, got.Hits, want.Estimate, want.Hits)
		}
	}
}

// TestCountDNFBatchedWideTotals pins the uint64 fast-path boundary: a
// term-weight total above 63 bits silently gets the big-integer pick —
// the same stream, so the same count as the scalar kernel.
func TestCountDNFBatchedWideTotals(t *testing.T) {
	// A term with a single literal over 70 variables has 2^69
	// satisfying assignments — BitLen 70, past the uint64 fast path.
	d := prop.DNF{NumVars: 70, Terms: []prop.Term{{prop.Lit{Var: 0}}, {prop.Lit{Var: 1, Neg: true}, prop.Lit{Var: 2}}}}
	want, err := CountDNF(bg, d, 0.3, 0.2, CountScalar, seeded(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := CountDNF(bg, d, 0.3, 0.2, CountBatched, seeded(1))
	if err != nil {
		t.Fatalf("batched kernel on a wide total: %v", err)
	}
	if !sameCount(got, want) {
		t.Fatalf("batched %v/%d != scalar %v/%d", got.Estimate, got.Hits, want.Estimate, want.Hits)
	}
}
