package karpluby

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"qrel/internal/mc"
	"qrel/internal/prop"
)

// sameCount compares CountResults by value (Estimate is a *big.Rat).
func sameCount(a, b CountResult) bool {
	return a.Samples == b.Samples && a.Hits == b.Hits && a.Estimate.Cmp(b.Estimate) == 0
}

// TestCountDNFParDeterministicAcrossWorkers pins the lane contract for
// the #DNF FPTRAS: any worker count yields the byte-identical count.
func TestCountDNFParDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	d := randDNF(rng, 20, 25, 3)
	ctx := context.Background()
	base, err := CountDNF(ctx, d, 0.2, 0.1, CountScalar, mc.Stream{Seed: 23, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.Samples == 0 {
		t.Fatal("baseline drew no samples")
	}
	for _, w := range []int{2, 4, 7} {
		got, err := CountDNF(ctx, d, 0.2, 0.1, CountScalar, mc.Stream{Seed: 23, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if !sameCount(got, base) {
			t.Errorf("workers=%d: %+v != workers=1 %+v", w, got, base)
		}
	}
}

// TestProbDNFParDeterministicAcrossWorkers does the same for the
// weighted estimator.
func TestProbDNFParDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	d := randDNF(rng, 10, 8, 3)
	p := make(prop.ProbAssignment, 10)
	for i := range p {
		p[i] = big.NewRat(int64(1+rng.Intn(8)), 9)
	}
	ctx := context.Background()
	base, err := ProbDNF(ctx, d, p, 0.2, 0.1, ProbScalar, mc.Stream{Seed: 29, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 7} {
		got, err := ProbDNF(ctx, d, p, 0.2, 0.1, ProbScalar, mc.Stream{Seed: 29, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if !sameCount(got, base) {
			t.Errorf("workers=%d: %+v != workers=1 %+v", w, got, base)
		}
	}
}

// TestCountDNFParResume kills a parallel count via checkpoint, resumes,
// and requires the bit-identical result of an uninterrupted run.
func TestCountDNFParResume(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	d := randDNF(rng, 20, 25, 3)
	ctx := context.Background()

	uninterrupted, err := CountDNF(ctx, d, 0.2, 0.1, CountScalar, mc.Stream{Seed: 31, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	var snap *mc.LoopState
	killCtx, cancel := context.WithCancel(ctx)
	_, err = CountDNF(killCtx, d, 0.2, 0.1, CountScalar, mc.Stream{Seed: 31, Workers: 2, Ckpt: &mc.Ckpt{
		Every: 128,
		Save: func(st mc.LoopState) error {
			if snap == nil && st.Drawn > 0 && st.Drawn < uninterrupted.Samples {
				snap = &st
				cancel() // kill the run once a mid-flight snapshot exists
			}
			return nil
		},
	}})
	if err == nil {
		t.Fatal("killed run returned no error (Karp–Luby lanes are not anytime)")
	}
	if snap == nil {
		t.Fatal("no mid-flight checkpoint was captured")
	}

	resumed, err := CountDNF(ctx, d, 0.2, 0.1, CountScalar, mc.Stream{Seed: 31, Workers: 2, Ckpt: &mc.Ckpt{Resume: snap}})
	if err != nil {
		t.Fatal(err)
	}
	if !sameCount(resumed, uninterrupted) {
		t.Errorf("resumed %+v != uninterrupted %+v", resumed, uninterrupted)
	}
}
