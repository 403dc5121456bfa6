package mc

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"qrel/internal/rel"
	"qrel/internal/testutil"
	"qrel/internal/unreliable"
)

// meanRange runs the lanes r of the seed's split and returns their raw
// aggregates.
func meanRange(ctx context.Context, d *unreliable.DB, f func(*rel.Structure) (float64, error), eps, delta float64, maxSamples int, seed int64, r Range, workers int, ck *Ckpt) ([]LaneAgg, error) {
	_, aggs, err := EstimateMean(ctx, MeanKernel(d, f), eps, delta, maxSamples, Stream{Seed: seed, Range: &r, Workers: workers, Ckpt: ck})
	return aggs, err
}

// drawnOf totals the samples a set of lanes drew.
func drawnOf(aggs []LaneAgg) int {
	n := 0
	for _, a := range aggs {
		n += a.Drawn
	}
	return n
}

// rangeAggs runs every range of the partition and pools the per-lane
// aggregates, as the cluster coordinator does.
func rangeAggs(t *testing.T, ranges []Range, seed int64, eps, delta float64, maxSamples, workers int) []LaneAgg {
	t.Helper()
	d := manyAtomDB()
	var aggs []LaneAgg
	for _, r := range ranges {
		lanes, err := meanRange(bg, d, statS, eps, delta, maxSamples, seed, r, workers, nil)
		if err != nil {
			t.Fatalf("range %v: %v", r, err)
		}
		aggs = append(aggs, lanes...)
	}
	return aggs
}

// TestRangeMergeBitIdentical is the distribution contract: any
// contiguous partition of the lane split, run range by range and merged
// with MergeMean, equals the single-node parallel estimate bit for bit.
func TestRangeMergeBitIdentical(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	d := manyAtomDB()
	const seed, eps, delta = 42, 0.05, 0.1

	base, err := meanPar(bg, d, statS, eps, delta, 0, seed, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 2, 3, 4, 8} {
		aggs := rangeAggs(t, SplitRanges(DefaultLanes, parts), seed, eps, delta, 0, 2)
		merged, err := MergeMean(aggs, DefaultLanes, eps, delta, 0)
		if err != nil {
			t.Fatalf("parts=%d: merge: %v", parts, err)
		}
		if merged != base {
			t.Errorf("parts=%d: merged %+v != single-node %+v", parts, merged, base)
		}
	}
}

// TestRangeMergePartialBudget checks the anytime path survives the
// split: under a sample budget the merged estimate carries the same
// Partial flag and widened eps as the single-node budgeted run.
func TestRangeMergePartialBudget(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	d := manyAtomDB()
	const seed, eps, delta, budget = 7, 0.01, 0.1, 900

	base, err := meanPar(bg, d, statS, eps, delta, budget, seed, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Partial {
		t.Fatalf("budgeted baseline not Partial: %+v", base)
	}
	aggs := rangeAggs(t, SplitRanges(DefaultLanes, 3), seed, eps, delta, budget, 2)
	merged, err := MergeMean(aggs, DefaultLanes, eps, delta, budget)
	if err != nil {
		t.Fatal(err)
	}
	if merged != base {
		t.Errorf("merged %+v != single-node %+v", merged, base)
	}
}

// TestRangeWorkerInvariance: a range's aggregates depend only on
// (seed, range, total), never on the worker count driving it.
func TestRangeWorkerInvariance(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	d := manyAtomDB()
	r := Range{Lo: 2, Hi: 6, Total: DefaultLanes}
	base, err := meanRange(bg, d, statS, 0.05, 0.1, 0, 11, r, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		got, err := meanRange(bg, d, statS, 0.05, 0.1, 0, 11, r, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d lanes, want %d", w, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Errorf("workers=%d lane %d: %+v != %+v", w, i, got[i], base[i])
			}
		}
	}
}

// TestSplitRanges checks the contiguous near-equal partition.
func TestSplitRanges(t *testing.T) {
	for _, tc := range []struct{ total, parts int }{{8, 1}, {8, 2}, {8, 3}, {8, 8}, {8, 12}, {5, 2}} {
		ranges := SplitRanges(tc.total, tc.parts)
		wantParts := tc.parts
		if wantParts > tc.total {
			wantParts = tc.total
		}
		if len(ranges) != wantParts {
			t.Fatalf("SplitRanges(%d,%d): %d ranges, want %d", tc.total, tc.parts, len(ranges), wantParts)
		}
		next := 0
		for i, r := range ranges {
			if err := r.Validate(); err != nil {
				t.Fatalf("SplitRanges(%d,%d)[%d] = %v: %v", tc.total, tc.parts, i, r, err)
			}
			if r.Lo != next || r.Total != tc.total {
				t.Fatalf("SplitRanges(%d,%d)[%d] = %v, want contiguous from %d", tc.total, tc.parts, i, r, next)
			}
			next = r.Hi
		}
		if next != tc.total {
			t.Fatalf("SplitRanges(%d,%d) covers [0,%d), want [0,%d)", tc.total, tc.parts, next, tc.total)
		}
	}
}

// TestMergeMeanRejectsBadCoverage: a merge must refuse lane sets that
// lost, duplicated, or re-quota'd a lane — silent acceptance would turn
// a reassignment bug into a wrong answer.
func TestMergeMeanRejectsBadCoverage(t *testing.T) {
	aggs := rangeAggs(t, SplitRanges(DefaultLanes, 2), 3, 0.05, 0.1, 0, 2)

	missing := append([]LaneAgg(nil), aggs[:DefaultLanes-1]...)
	if _, err := MergeMean(missing, DefaultLanes, 0.05, 0.1, 0); err == nil {
		t.Error("merge accepted a missing lane")
	}
	dup := append([]LaneAgg(nil), aggs...)
	dup[DefaultLanes-1] = dup[0]
	if _, err := MergeMean(dup, DefaultLanes, 0.05, 0.1, 0); err == nil {
		t.Error("merge accepted a duplicated lane")
	}
	reQuota := append([]LaneAgg(nil), aggs...)
	reQuota[3].Quota++
	if _, err := MergeMean(reQuota, DefaultLanes, 0.05, 0.1, 0); err == nil {
		t.Error("merge accepted a quota-conservation violation")
	}
	overdrawn := append([]LaneAgg(nil), aggs...)
	overdrawn[2].Drawn = overdrawn[2].Quota + 1
	if _, err := MergeMean(overdrawn, DefaultLanes, 0.05, 0.1, 0); err == nil {
		t.Error("merge accepted an overdrawn lane")
	}
}

// TestRangeCheckpointScoping: a subrange's snapshot resumes only the
// same subrange (the method string embeds the range), and a killed
// range run resumed from its snapshot merges to the bit-identical
// full-run estimate.
func TestRangeCheckpointScoping(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	d := manyAtomDB()
	const seed, eps, delta = 9, 0.02, 0.1
	left := Range{Lo: 0, Hi: 4, Total: DefaultLanes}
	right := Range{Lo: 4, Hi: 8, Total: DefaultLanes}

	base, err := meanPar(bg, d, statS, eps, delta, 0, seed, 3, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the left range mid-flight, keeping its last snapshot.
	var snap *LoopState
	save := func(st LoopState) error { snap = &st; return nil }
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	var calls atomic.Int64
	killer := func(b *rel.Structure) (float64, error) {
		if calls.Add(1) == 1500 {
			cancel()
		}
		return statS(b)
	}
	killed, err := meanRange(ctx, d, killer, eps, delta, 0, seed, left, 3, &Ckpt{Every: 128, Save: save})
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no checkpoint was saved")
	}
	if drawnOf(killed) >= quotaOf(t, left, eps, delta) {
		t.Fatalf("killed range completed (%d samples); cancel fired too late", drawnOf(killed))
	}
	if !strings.Contains(snap.Method, left.String()) {
		t.Fatalf("snapshot method %q does not embed the range %v", snap.Method, left)
	}

	// Another range must refuse the snapshot.
	if _, err := meanRange(bg, d, statS, eps, delta, 0, seed, right, 3, &Ckpt{Resume: snap}); err == nil {
		t.Error("right range resumed from the left range's snapshot")
	}

	// The same range resumes to completion, and the merge with a fresh
	// right-range run equals the uninterrupted single-node estimate.
	resumed, err := meanRange(bg, d, statS, eps, delta, 0, seed, left, 3, &Ckpt{Resume: snap})
	if err != nil {
		t.Fatal(err)
	}
	rightRun, err := meanRange(bg, d, statS, eps, delta, 0, seed, right, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeMean(append(append([]LaneAgg(nil), resumed...), rightRun...), DefaultLanes, eps, delta, 0)
	if err != nil {
		t.Fatal(err)
	}
	if merged != base {
		t.Errorf("resume-then-merge %+v != uninterrupted %+v", merged, base)
	}
}

// TestSplitRangesProperty is the seeded property test over arbitrary
// (total, parts): the partition must tile [0, total) exactly — every
// lane in exactly one range, ranges contiguous and ordered — and must
// conserve the sample quota: the ranges' quotas sum to the full run's
// Hoeffding sample size, so no partition can silently add or drop
// samples.
func TestSplitRangesProperty(t *testing.T) {
	rng := NewRand(1234)
	for i := 0; i < 500; i++ {
		total := 1 + rng.Intn(64)
		parts := 1 + rng.Intn(80) // deliberately often > total
		ranges := SplitRanges(total, parts)

		wantParts := parts
		if wantParts > total {
			wantParts = total
		}
		if len(ranges) != wantParts {
			t.Fatalf("SplitRanges(%d,%d): %d ranges, want %d", total, parts, len(ranges), wantParts)
		}
		covered := make([]int, total)
		next := 0
		maxLen, minLen := 0, total+1
		for j, r := range ranges {
			if err := r.Validate(); err != nil {
				t.Fatalf("SplitRanges(%d,%d)[%d] = %v: %v", total, parts, j, r, err)
			}
			if r.Total != total || r.Lo != next {
				t.Fatalf("SplitRanges(%d,%d)[%d] = %v, want contiguous from %d over %d", total, parts, j, r, next, total)
			}
			for lane := r.Lo; lane < r.Hi; lane++ {
				covered[lane]++
			}
			if n := r.Len(); n > maxLen {
				maxLen = n
			}
			if n := r.Len(); n < minLen {
				minLen = n
			}
			next = r.Hi
		}
		if next != total {
			t.Fatalf("SplitRanges(%d,%d) covers [0,%d), want [0,%d)", total, parts, next, total)
		}
		for lane, n := range covered {
			if n != 1 {
				t.Fatalf("SplitRanges(%d,%d): lane %d covered %d times", total, parts, lane, n)
			}
		}
		if maxLen-minLen > 1 {
			t.Fatalf("SplitRanges(%d,%d): range lengths span [%d,%d], want near-equal", total, parts, minLen, maxLen)
		}

		// Quota conservation: the per-range quotas of a Hoeffding run sum
		// to exactly the single-node sample size.
		eps := 0.02 + 0.08*rng.Float64()
		full, err := hoeffdingSampleSize(eps, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for _, r := range ranges {
			sum += quotaOf(t, r, eps, 0.1)
		}
		if sum != full {
			t.Fatalf("SplitRanges(%d,%d) quotas sum to %d, want %d (eps=%v)", total, parts, sum, full, eps)
		}
	}
}

// TestRangeResumeWorkerMatrix pins the recovery contract the cluster
// coordinator leans on: a range killed mid-run and resumed from its
// shipped snapshot merges to the bit-identical full estimate no matter
// how many workers drive the resumed run — the worker count schedules
// lanes, it never touches the sample streams.
func TestRangeResumeWorkerMatrix(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	d := manyAtomDB()
	const seed, eps, delta = 13, 0.02, 0.1
	left := Range{Lo: 0, Hi: 4, Total: DefaultLanes}
	right := Range{Lo: 4, Hi: 8, Total: DefaultLanes}

	base, err := meanPar(bg, d, statS, eps, delta, 0, seed, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	rightRun, err := meanRange(bg, d, statS, eps, delta, 0, seed, right, 2, nil)
	if err != nil {
		t.Fatal(err)
	}

	// One mid-run snapshot of the left range per checkpoint interval
	// (none of them whole blocks per lane), taken by a 2-worker run.
	for _, every := range []int{128, 300} {
		var snap *LoopState
		save := func(st LoopState) error { snap = &st; return nil }
		ctx, cancel := context.WithCancel(bg)
		var calls atomic.Int64
		killer := func(b *rel.Structure) (float64, error) {
			if calls.Add(1) == 1500 {
				cancel()
			}
			return statS(b)
		}
		_, err := meanRange(ctx, d, killer, eps, delta, 0, seed, left, 2, &Ckpt{Every: every, Save: save})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if snap == nil {
			t.Fatalf("every=%d: no checkpoint was saved", every)
		}

		for _, w := range []int{1, 2, 4, 7} {
			resumed, err := meanRange(bg, d, statS, eps, delta, 0, seed, left, w, &Ckpt{Resume: snap})
			if err != nil {
				t.Fatalf("every=%d workers=%d: %v", every, w, err)
			}
			merged, err := MergeMean(append(append([]LaneAgg(nil), resumed...), rightRun...), DefaultLanes, eps, delta, 0)
			if err != nil {
				t.Fatalf("every=%d workers=%d: merge: %v", every, w, err)
			}
			if merged != base {
				t.Errorf("every=%d workers=%d: resume-then-merge %+v != uninterrupted %+v", every, w, merged, base)
			}
		}
	}
}

// quotaOf computes the sample quota a range owns for the accuracy
// parameters.
func quotaOf(t *testing.T, r Range, eps, delta float64) int {
	t.Helper()
	total, err := hoeffdingSampleSize(eps, delta)
	if err != nil {
		t.Fatal(err)
	}
	q, rem := total/r.Total, total%r.Total
	n := 0
	for i := r.Lo; i < r.Hi; i++ {
		n += q
		if i < rem {
			n++
		}
	}
	return n
}
