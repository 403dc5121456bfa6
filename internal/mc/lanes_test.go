package mc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"reflect"
	"sync/atomic"
	"testing"

	"qrel/internal/faultinject"
	"qrel/internal/rel"
	"qrel/internal/testutil"
	"qrel/internal/unreliable"
)

// manyAtomDB is a database with several uncertain atoms so lane streams
// exercise multi-flip world draws.
func manyAtomDB() *unreliable.DB {
	voc := rel.MustVocabulary(rel.RelSym{Name: "S", Arity: 1})
	s := rel.MustStructure(8, voc)
	d := unreliable.New(s)
	for i := 0; i < 8; i++ {
		s.MustAdd("S", i)
		d.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{i}}, big.NewRat(int64(i+1), 10))
	}
	return d
}

// statS counts the fraction of S-facts present in a sampled world.
func statS(b *rel.Structure) (float64, error) {
	n := 0
	for i := 0; i < 8; i++ {
		if b.Holds("S", rel.Tuple{i}) {
			n++
		}
	}
	return float64(n) / 8, nil
}

// The three interpreted estimators on the lane split of a seed.
func meanPar(ctx context.Context, d *unreliable.DB, f func(*rel.Structure) (float64, error), eps, delta float64, maxSamples int, seed int64, workers int, ck *Ckpt) (Estimate, error) {
	est, _, err := EstimateMean(ctx, MeanKernel(d, f), eps, delta, maxSamples, Stream{Seed: seed, Workers: workers, Ckpt: ck})
	return est, err
}

func paddedPar(ctx context.Context, d *unreliable.DB, pred func(*rel.Structure) (bool, error), xi, eps, delta float64, maxSamples int, seed int64, workers int, ck *Ckpt) (Estimate, error) {
	return EstimateNuPadded(ctx, PaddedPred(d, pred), xi, eps, delta, maxSamples, Stream{Seed: seed, Workers: workers, Ckpt: ck})
}

func rarePar(ctx context.Context, d *unreliable.DB, f func(*rel.Structure) (float64, error), eps, delta float64, maxSamples int, seed int64, workers int, ck *Ckpt) (Estimate, error) {
	return EstimateMeanRare(ctx, d, MeanKernel(d, f), eps, delta, maxSamples, Stream{Seed: seed, Workers: workers, Ckpt: ck})
}

func predAnyS(b *rel.Structure) (bool, error) {
	for i := 0; i < 8; i++ {
		if !b.Holds("S", rel.Tuple{i}) {
			return true, nil
		}
	}
	return false, nil
}

// TestLaneDeterminismAcrossWorkers is the core contract of the lane
// runtime: the estimate is a function of (seed, lane count) only — any
// worker count W >= 1 produces the byte-identical Estimate, because W
// only schedules the fixed lanes.
func TestLaneDeterminismAcrossWorkers(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	d := manyAtomDB()
	const seed = 42

	baseMean, err := meanPar(bg, d, statS, 0.05, 0.1, 0, seed, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	basePadded, err := paddedPar(bg, d, predAnyS, 0.25, 0.1, 0.1, 0, seed, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseRare, err := rarePar(bg, d, statS, 0.05, 0.1, 0, seed, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if baseMean.Samples == 0 || basePadded.Samples == 0 || baseRare.Samples == 0 {
		t.Fatal("baseline drew no samples")
	}

	for _, w := range []int{2, 4, 7} {
		mean, err := meanPar(bg, d, statS, 0.05, 0.1, 0, seed, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		if mean != baseMean {
			t.Errorf("mean workers=%d: %+v != workers=1 %+v", w, mean, baseMean)
		}
		padded, err := paddedPar(bg, d, predAnyS, 0.25, 0.1, 0.1, 0, seed, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		if padded != basePadded {
			t.Errorf("padded workers=%d: %+v != workers=1 %+v", w, padded, basePadded)
		}
		rare, err := rarePar(bg, d, statS, 0.05, 0.1, 0, seed, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rare != baseRare {
			t.Errorf("rare workers=%d: %+v != workers=1 %+v", w, rare, baseRare)
		}
	}
}

// TestLaneCancelWidensEps is the regression test for the partial-result
// accounting fix: a canceled parallel run must report Drawn as the true
// total across all lanes and widen eps from that total — not from any
// single lane's count.
func TestLaneCancelWidensEps(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	d := manyAtomDB()
	ctx, cancel := context.WithCancel(bg)
	var calls atomic.Int64
	f := func(b *rel.Structure) (float64, error) {
		if calls.Add(1) == 2000 {
			cancel()
		}
		return statS(b)
	}
	const delta = 0.1
	est, err := meanPar(ctx, d, f, 0.01, delta, 0, 7, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Partial {
		t.Fatal("canceled run not marked Partial")
	}
	if est.Samples < 2000 || est.Samples >= est.Requested {
		t.Fatalf("Samples = %d, want cross-lane total in [2000, %d)", est.Samples, est.Requested)
	}
	want := widenedHoeffdingEps(delta, est.Samples)
	if math.Abs(est.Eps-want) > 1e-15 {
		t.Errorf("widened eps %v, want widenedHoeffdingEps(delta, %d) = %v", est.Eps, est.Samples, want)
	}
}

// TestLaneKillResume kills a multi-lane run mid-flight, checkpoints it,
// resumes from the snapshot, and requires the final estimate to be
// bit-identical to an uninterrupted run of the same seed — for
// checkpoint intervals that are not whole blocks per lane, which the
// driver rounds up to block boundaries.
func TestLaneKillResume(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	d := manyAtomDB()
	const seed, eps, delta = 9, 0.02, 0.1

	uninterrupted, err := meanPar(bg, d, statS, eps, delta, 0, seed, 3, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, every := range []int{100, 256, 1000} {
		var snap *LoopState
		save := func(st LoopState) error {
			snap = &st
			return nil
		}
		ctx, cancel := context.WithCancel(bg)
		var calls atomic.Int64
		killer := func(b *rel.Structure) (float64, error) {
			if calls.Add(1) == 1500 {
				cancel()
			}
			return statS(b)
		}
		first, err := meanPar(ctx, d, killer, eps, delta, 0, seed, 3, &Ckpt{Every: every, Save: save})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if !first.Partial {
			t.Fatalf("every=%d: killed run not marked Partial", every)
		}
		if snap == nil {
			t.Fatalf("every=%d: no checkpoint was saved", every)
		}
		if snap.LaneCount != DefaultLanes || len(snap.Lanes) != DefaultLanes {
			t.Fatalf("every=%d: snapshot has LaneCount=%d, %d lane states; want %d", every, snap.LaneCount, len(snap.Lanes), DefaultLanes)
		}

		resumed, err := meanPar(bg, d, statS, eps, delta, 0, seed, 3, &Ckpt{Resume: snap})
		if err != nil {
			t.Fatal(err)
		}
		if resumed != uninterrupted {
			t.Errorf("every=%d: resumed estimate %+v != uninterrupted %+v", every, resumed, uninterrupted)
		}
	}
}

// TestShortLanesCheckpoint: a run whose lanes hold less than a block
// each (300 samples on 8 lanes) still commits about once per Every
// samples — each lane checks on drawing its quota — and records each
// short last block as the lane's End. Its final snapshot replays the
// same run without a draw or a save; every snapshot resumes the run
// without the budget, from the block boundaries, bit-identically; and
// an End that is not within the block after its boundary is refused.
func TestShortLanesCheckpoint(t *testing.T) {
	d := manyAtomDB()
	const seed, eps, delta, budget = 7, 0.05, 0.05, 300
	uninterrupted, err := meanPar(bg, d, statS, eps, delta, 0, seed, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []LoopState
	capped, err := meanPar(bg, d, statS, eps, delta, budget, seed, 2, &Ckpt{Every: 100, Save: func(st LoopState) error {
		snaps = append(snaps, st)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 3 {
		t.Fatalf("a %d-sample run with Every 100 committed %d snapshots, want at least 3", budget, len(snaps))
	}
	final := snaps[len(snaps)-1]
	if final.Drawn != budget {
		t.Fatalf("final snapshot holds %d samples, want %d", final.Drawn, budget)
	}
	for i, l := range final.Lanes {
		if l.Drawn != 0 || l.End == nil {
			t.Fatalf("lane %d: boundary %d, End %v; want boundary 0 and an End", i, l.Drawn, l.End)
		}
	}

	var evals atomic.Int64
	counting := func(b *rel.Structure) (float64, error) {
		evals.Add(1)
		return statS(b)
	}
	saves := 0
	replay, err := meanPar(bg, d, counting, eps, delta, budget, seed, 3, &Ckpt{Every: 100, Resume: &final, Save: func(LoopState) error {
		saves++
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if replay != capped || evals.Load() != 0 || saves != 0 {
		t.Fatalf("replay: %+v after %d samples and %d saves, want %+v after none", replay, evals.Load(), saves, capped)
	}

	for i := range snaps {
		resumed, err := meanPar(bg, d, statS, eps, delta, 0, seed, 1+i%3, &Ckpt{Resume: &snaps[i]})
		if err != nil {
			t.Fatal(err)
		}
		if resumed != uninterrupted {
			t.Errorf("snapshot %d resumed without the budget: %+v, uninterrupted %+v", i, resumed, uninterrupted)
		}
	}

	lanes, method, err := Stream{Seed: seed}.lanes(MeanMethod, budget)
	if err != nil {
		t.Fatal(err)
	}
	for _, end := range []LaneEnd{{Drawn: 0}, {Drawn: blockSize}, {Drawn: 10, Hits: 11}} {
		bad := final
		bad.Lanes = append([]LaneState(nil), final.Lanes...)
		bad.Lanes[2].End = &end
		if err := restoreLanes(method, lanes, &Ckpt{Resume: &bad}); !errors.Is(err, ErrResumeMismatch) {
			t.Errorf("End %+v after boundary 0: %v, want ErrResumeMismatch", end, err)
		}
	}
}

// TestRestoreLanesRejectsMismatch covers the snapshot/run lane-count
// compatibility rules: a snapshot without lane states (LaneCount 0, the
// retired sequential schema) resumes no run, not even a one-lane one,
// and lane counts must match exactly.
func TestRestoreLanesRejectsMismatch(t *testing.T) {
	single := &LoopState{Method: "hoeffding", Drawn: 64, Sum: 5, RNG: newSource(1).State()}
	lanes := splitLanes(1, DefaultLanes)
	for _, run := range [][]*Lane{lanes, splitLanes(1, 1)} {
		if err := restoreLanes("hoeffding", run, &Ckpt{Resume: single}); !errors.Is(err, ErrResumeMismatch) {
			t.Errorf("LaneCount-0 snapshot into a %d-lane run: %v, want ErrResumeMismatch", len(run), err)
		}
	}

	multi := &LoopState{Method: "hoeffding", LaneCount: 4, RNG: newSource(1).State()}
	for i := 0; i < 4; i++ {
		multi.Lanes = append(multi.Lanes, LaneState{RNG: newSource(int64(i + 1)).State()})
	}
	if err := restoreLanes("hoeffding", lanes, &Ckpt{Resume: multi}); err == nil {
		t.Errorf("%d-lane snapshot restored into %d-lane run", 4, DefaultLanes)
	}
	if err := restoreLanes("padded", splitLanes(1, 4), &Ckpt{Resume: multi}); err == nil {
		t.Error("snapshot restored into a different estimator")
	}
}

// TestLaneWorkerFaultInjection injects a failure into one lane worker
// and requires the estimator to surface it (not a context error) while
// sibling lanes are canceled rather than left running.
func TestLaneWorkerFaultInjection(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	defer faultinject.Reset()
	d := manyAtomDB()
	boom := errors.New("injected lane failure")
	for _, workers := range []int{1, 4} {
		faultinject.Reset()
		faultinject.Enable(faultinject.SiteLaneWorker, faultinject.Fault{Err: boom, Times: 1})
		_, err := meanPar(bg, d, statS, 0.05, 0.1, 0, 3, workers, nil)
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: error %v, want injected fault", workers, err)
		}
	}
}

// TestRunLanesPrefersRealError makes runLanes report the causal failure
// when sibling lanes die of the cancellation it triggered.
func TestRunLanesPrefersRealError(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	lanes := splitLanes(5, 4)
	boom := errors.New("lane 2 failed")
	err := runLanes(bg, lanes, 4, func(ctx context.Context, ln *Lane) error {
		if ln.Idx == 2 {
			return boom
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, boom) {
		t.Errorf("runLanes error %v, want the non-context lane error", err)
	}
}

// TestAssignQuotas checks the fixed-quota split: totals are preserved
// and remainders go to the lowest-index lanes.
func TestAssignQuotas(t *testing.T) {
	lanes := splitLanes(1, 8)
	assignQuotas(lanes, 19)
	sum := 0
	for i, ln := range lanes {
		sum += ln.Quota
		want := 19 / 8
		if i < 19%8 {
			want++
		}
		if ln.Quota != want {
			t.Errorf("lane %d quota %d, want %d", i, ln.Quota, want)
		}
	}
	if sum != 19 {
		t.Errorf("quotas sum to %d, want 19", sum)
	}
}

// pollCtx records every poll of the context. The single-worker driver
// polls the context it was given, so the hook sees each one.
type pollCtx struct {
	context.Context
	polled func()
}

func (p pollCtx) Err() error {
	p.polled()
	return p.Context.Err()
}

// driverTrace is what a run lets the outside observe: where each lane
// stood at every context poll and at every persisted snapshot (as the
// snapshot's cross-lane total), and where the lanes ended.
type driverTrace struct {
	polls [][2]int // (lane index, Drawn)
	saves []int
	final []int
}

// scalarTrace is the reference: the one-sample-at-a-time lane loop the
// driver's batches must be indistinguishable from. start and quota are
// per lane; the cancellation fires once lane cancelLane has drawn its
// sample number cancelAt (cancelLane < 0: never), and is noticed at
// the next poll, if there is one: stopped reports that a lane was cut
// short.
func scalarTrace(idx, start, quota []int, every int, saving bool, cancelLane, cancelAt int, anytime bool) (tr driverTrace, stopped bool) {
	published := append([]int(nil), start...)
	total := func() int {
		n := 0
		for _, d := range published {
			n += d
		}
		return n
	}
	saved := total()
	save := func() {
		if t := total(); saving && t != saved {
			saved = t
			tr.saves = append(tr.saves, t)
		}
	}
	// A lane checks every perLane of its samples, and every per-th check
	// of the run commits: the fewest checks that stand for every samples.
	perLane, per, checks := 0, 0, 0
	if saving && every > 0 {
		perLane = (max(1, every/len(idx)) + blockSize - 1) / blockSize * blockSize
		per = (every + perLane - 1) / perLane
	}
	tr.final = append([]int(nil), start...)
	canceled := false
	for i := range idx {
		drawn, lastCheck := start[i], start[i]
		for drawn < quota[i] {
			if drawn%blockSize == 0 {
				tr.polls = append(tr.polls, [2]int{idx[i], drawn})
				if canceled {
					stopped = true
					break
				}
			}
			if perLane > 0 && drawn-lastCheck >= perLane {
				lastCheck = drawn
				published[i] = drawn
				if checks++; checks%per == 0 {
					save()
				}
			}
			drawn++
			if i == cancelLane && drawn == cancelAt {
				canceled = true
			}
		}
		tr.final[i] = drawn
		if stopped && !anytime {
			return tr, true // the error path persists nothing more
		}
		if drawn < quota[i] {
			published[i] = drawn - drawn%blockSize // cut inside a block: its boundary
			continue
		}
		// A lane that drew its quota publishes it, short last block and
		// all, and checks if it drew it without a periodic check.
		published[i] = drawn
		if perLane > 0 && drawn > start[i] && lastCheck == start[i] {
			if checks++; checks%per == 0 {
				save()
			}
		}
	}
	save()
	return tr, stopped
}

// TestDriverMatchesScalarLoop is the driver's block-alignment property
// test. Over seeded random streams, quotas, checkpoint intervals (most
// of them not whole blocks per lane), resume offsets and cancellation
// points, a kernel that counts its batch one sample at a time and one
// that counts it in one step must both leave exactly the trace of the
// scalar reference loop — polled at every block boundary, checking at
// the per-lane cadence rounded up to whole blocks and committing at
// every check that completes Every samples of check progress — and
// every batch
// must be one block: starting at a multiple of blockSize, of
// blockSize samples or the lane's remainder — and every snapshot must
// hold its lanes at block boundaries, a short last block left out. A
// cancelled anytime run returns its partial aggregates, a cancelled
// non-anytime run returns the context's error and leaves a snapshot
// that resumes to the complete run under any worker count; a snapshot
// whose lane stopped inside a block is refused.
func TestDriverMatchesScalarLoop(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rng := NewRand(20241003)
	for iter := 0; iter < 400; iter++ {
		total := rng.Intn(1500)
		every := 0
		if rng.Intn(3) > 0 {
			every = 1 + rng.Intn(400)
		}
		saving := rng.Intn(4) > 0
		anytime := rng.Intn(2) == 0
		seed := rng.Int63()
		// The stream: the DefaultLanes split, or a random subrange of a
		// random lane split.
		newStream := func() Stream { return Stream{Seed: seed} }
		if rng.Intn(4) > 0 {
			r := Range{Total: 1 + rng.Intn(6)}
			r.Lo = rng.Intn(r.Total)
			r.Hi = r.Lo + 1 + rng.Intn(r.Total-r.Lo)
			newStream = func() Stream { return Stream{Seed: seed, Range: &r} }
		}
		probe, method, err := newStream().lanes("count", total)
		if err != nil {
			t.Fatal(err)
		}
		n := len(probe)
		idx, start, quota := make([]int, n), make([]int, n), make([]int, n)
		var resume *LoopState
		if rng.Intn(2) == 0 {
			resume = &LoopState{Method: method, LaneCount: n, RNG: probe[0].Src.State()}
		}
		for i, ln := range probe {
			idx[i], quota[i] = ln.Idx, ln.Quota
			if resume != nil {
				// A snapshot lane stands at a block boundary.
				start[i] = rng.Intn(ln.Quota/blockSize+1) * blockSize
				resume.Drawn += start[i]
				resume.Hits += start[i]
				resume.Sum += float64(start[i])
				resume.Lanes = append(resume.Lanes, LaneState{Drawn: start[i], Hits: start[i], Sum: float64(start[i]), RNG: ln.Src.State()})
			}
		}
		cancelLane, cancelAt := -1, 0
		if i := rng.Intn(n); rng.Intn(2) == 0 && start[i] < quota[i] {
			cancelLane, cancelAt = i, start[i]+1+rng.Intn(quota[i]-start[i])
		}
		want, wantStopped := scalarTrace(idx, start, quota, every, saving, cancelLane, cancelAt, anytime)

		// run drives one kernel over the stream and records its trace and,
		// per lane, the batches it was handed.
		run := func(workers int, wide bool, cancelLane int, resume *LoopState) (driverTrace, [][]int, *LoopState, []*Lane, error) {
			ctx, cancel := context.WithCancel(bg)
			defer cancel()
			var tr driverTrace
			var cur *Lane
			var last *LoopState
			batches := make([][]int, n)
			s := newStream()
			s.Workers = workers
			s.Ckpt = &Ckpt{Every: every, Resume: resume}
			if saving {
				s.Ckpt.Save = func(st LoopState) error {
					tr.saves = append(tr.saves, st.Drawn)
					last = &st
					return nil
				}
			}
			lanes, err := Run(pollCtx{ctx, func() {
				if workers == 1 {
					tr.polls = append(tr.polls, [2]int{cur.Idx, cur.Drawn})
				}
			}}, "count", total, anytime, s, func(ln *Lane) func(int) error {
				if workers == 1 {
					cur = ln
				}
				pos := ln.Idx - idx[0]
				return func(m int) error {
					batches[pos] = append(batches[pos], m)
					if pos == cancelLane && ln.Drawn < cancelAt && cancelAt <= ln.Drawn+m {
						cancel()
					}
					if wide {
						ln.Hits += m
						ln.Sum += float64(m)
						return nil
					}
					for ; m > 0; m-- {
						ln.Hits++
						ln.Sum++
					}
					return nil
				}
			})
			for _, ln := range lanes {
				tr.final = append(tr.final, ln.Drawn)
			}
			return tr, batches, last, lanes, err
		}

		for _, wide := range []bool{false, true} {
			got, batches, last, lanes, err := run(1, wide, cancelLane, resume)
			label := fmt.Sprintf("iter %d (total=%d every=%d saving=%v anytime=%v lanes=%v start=%v cancel=%d@%d wide=%v)",
				iter, total, every, saving, anytime, idx, start, cancelLane, cancelAt, wide)
			if wantStopped && !anytime {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: error %v, want context.Canceled", label, err)
				}
				got.final = want.final // the error path returns no lanes
			} else if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s:\n got  %+v\n want %+v", label, got, want)
			}
			for i, ln := range lanes {
				if ln.Hits != ln.Drawn || ln.Sum != float64(ln.Drawn) {
					t.Fatalf("%s: lane %d folded %d hits, sum %v over %d samples", label, ln.Idx, ln.Hits, ln.Sum, ln.Drawn)
				}
				if !wantStopped && ln.Drawn != quota[i] {
					t.Fatalf("%s: lane %d drew %d of %d", label, ln.Idx, ln.Drawn, quota[i])
				}
			}
			for i, bs := range batches {
				d := start[i]
				for _, m := range bs {
					if d%blockSize != 0 || m != min(blockSize, quota[i]-d) {
						t.Fatalf("%s: lane %d batch of %d at Drawn=%d (quota %d) is not a block", label, idx[i], m, d, quota[i])
					}
					d += m
				}
				if d != want.final[i] {
					t.Fatalf("%s: lane %d batches sum to Drawn=%d, want %d", label, idx[i], d, want.final[i])
				}
			}
			// Whatever snapshot a cut-short run left resumes to the complete
			// run, under any worker count.
			if wantStopped && last != nil {
				_, batches, _, lanes, err := run(1+rng.Intn(4), wide, -1, last)
				if err != nil {
					t.Fatalf("%s: resume: %v", label, err)
				}
				for i, ln := range lanes {
					if ln.Drawn != quota[i] || ln.Hits != quota[i] || ln.Sum != float64(quota[i]) {
						t.Fatalf("%s: resumed lane %d: drawn=%d hits=%d sum=%v, want %d", label, ln.Idx, ln.Drawn, ln.Hits, ln.Sum, quota[i])
					}
				}
				for i, bs := range batches {
					d := last.Lanes[i].Drawn
					for _, m := range bs {
						if d%blockSize != 0 || m != min(blockSize, quota[i]-d) {
							t.Fatalf("%s: resumed lane %d batch of %d at Drawn=%d is not a block", label, idx[i], m, d)
						}
						d += m
					}
				}
			}
		}
		// A lane stopped inside a block has no continuation: refused.
		if i := rng.Intn(n); quota[i] >= 1 {
			bad := &LoopState{Method: method, LaneCount: n, RNG: probe[0].Src.State()}
			states := make([]LaneState, n)
			for j, ln := range probe {
				states[j] = LaneState{RNG: ln.Src.State()}
			}
			for states[i].Drawn = 1 + rng.Intn(quota[i]); states[i].Drawn%blockSize == 0; {
				states[i].Drawn = 1 + rng.Intn(quota[i])
			}
			bad.Lanes, bad.Drawn = states, states[i].Drawn
			s := newStream()
			s.Ckpt = &Ckpt{Resume: bad}
			_, err := Run(bg, "count", total, anytime, s, func(ln *Lane) func(int) error {
				return func(int) error { return nil }
			})
			if !errors.Is(err, ErrResumeMismatch) {
				t.Fatalf("iter %d: lane %d resumed at Drawn=%d of %d: error %v, want ErrResumeMismatch", iter, idx[i], states[i].Drawn, quota[i], err)
			}
		}
	}
}

// commitForm is the closed form of a run's commits: lanes of the given
// quotas check every p samples (Every/lanes rounded up to whole
// blocks), at p, 2p, … below their quota — a lane with none of those,
// once on drawing its quota — and every per-th check of the run
// commits, per = ⌈Every/p⌉. The final boundary save commits too when a
// lane published after the last periodic commit: always when the run's
// last check did not commit, and always after a periodic check, which
// its lane draws past. ok is false when that depends on whether the
// run's last check is a periodic one or a short lane's.
func commitForm(quota []int, every int) (periodic, commits, p int, ok bool) {
	p = (max(1, every/len(quota)) + blockSize - 1) / blockSize * blockSize
	per := (every + p - 1) / p
	checks, checkers, enders := 0, 0, 0
	for _, q := range quota {
		switch c := max(0, q-1) / p; {
		case c > 0:
			checks += c
			checkers++
		case q > 0:
			checks++
			enders++
		}
	}
	periodic = checks / per
	switch {
	case checks%per != 0, enders == 0 && checkers > 0:
		return periodic, periodic + 1, p, true
	case checkers == 0:
		return periodic, periodic, p, true
	}
	return periodic, 0, p, false
}

// TestCheckpointCadence holds the lane driver to one commit per Every
// samples of the run. For each (total, lane range, Every) the number of
// Save calls is the same under 1, 2 and 8 workers and equals
// commitForm, and consecutive periodic commits stand at least Every
// samples of check progress apart — a lane at Drawn d has made
// min(⌊d/p⌋, its periodic checks) checks, or its one check on drawing a
// quota q ≤ p. The sampling-mix shape (73 778 samples, Every 2^14, 8
// lanes) commits exactly 5.
func TestCheckpointCadence(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	for _, c := range []struct {
		total, every int
		r            Range
		want         int // commits, 0: commitForm's alone
	}{
		{total: 73778, every: 1 << 14, r: Range{0, 8, 8}, want: 5},
		{total: 1008, every: 252, r: Range{0, 8, 8}}, // the chaos resume phase's interrupted run
		{total: 5000, every: 1000, r: Range{0, 8, 8}},
		{total: 40000, every: 1 << 12, r: Range{2, 6, 8}},
		{total: 9000, every: 700, r: Range{0, 1, 1}},
		{total: 3000, every: 100, r: Range{0, 3, 3}},
		{total: 12345, every: 1 << 20, r: Range{0, 8, 8}},
		{total: 30, every: 10, r: Range{0, 8, 8}},
		{total: 300, every: 100, r: Range{0, 8, 8}, want: 4}, // lanes of 37 or 38: one check each
	} {
		probe, _, err := Stream{Seed: 1, Range: &c.r}.lanes("count", c.total)
		if err != nil {
			t.Fatal(err)
		}
		quota := make([]int, len(probe))
		for i, ln := range probe {
			quota[i] = ln.Quota
		}
		periodic, want, p, ok := commitForm(quota, c.every)
		if !ok {
			t.Fatalf("%+v: whether the final save commits depends on scheduling; pick another case", c)
		}
		if c.want != 0 && want != c.want {
			t.Fatalf("%+v: closed form gives %d commits, want %d", c, want, c.want)
		}
		checkProgress := func(st LoopState) int {
			n := 0
			for i, l := range st.Lanes {
				d, c := l.reached().Drawn, max(0, quota[i]-1)/p
				switch {
				case c > 0:
					n += min(d/p, c)
				case d == quota[i] && d > 0:
					n++
				}
			}
			return n * p
		}
		for _, workers := range []int{1, 2, 8} {
			var progress []int
			_, err := Run(bg, "count", c.total, true, Stream{
				Seed: 1, Range: &c.r, Workers: workers,
				Ckpt: &Ckpt{Every: c.every, Save: func(st LoopState) error {
					progress = append(progress, checkProgress(st))
					return nil
				}},
			}, func(*Lane) func(int) error { return func(int) error { return nil } })
			if err != nil {
				t.Fatal(err)
			}
			if len(progress) != want {
				t.Fatalf("%+v, %d workers: %d commits, want %d", c, workers, len(progress), want)
			}
			last := 0
			for _, at := range progress[:periodic] {
				if at-last < c.every {
					t.Fatalf("%+v, %d workers: periodic commits at check progress %v, not %d apart", c, workers, progress[:periodic], c.every)
				}
				last = at
			}
		}
	}
}
