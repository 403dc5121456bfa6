package mc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"qrel/internal/faultinject"
)

// The sampling driver. Every estimator of Section 5 is the same loop —
// draw t i.i.d. samples, fold them, scale — so the loop exists once:
// Run owns the lanes, their quotas, cancellation, the checkpoint
// cadence and the lane-range restriction, and an estimator is a Kernel
// (what one lane does with its next m samples) plus a prologue that
// sizes t and an epilogue that scales the folded aggregates.
//
// A run is divided into a fixed number of RNG lanes: lane i draws from
// the seed's base xoshiro256** state advanced by i LongJumps (2^192
// apart, so the lanes never overlap), and owns a fixed quota of the
// total sample count. Lanes are executed by a pool of workers, but the
// estimate is a function of (seed, lane count) only: per-lane
// aggregates accumulate in sample order within the lane and are merged
// in lane-index order, so the W-worker estimate for seed s is
// bit-identical to the 1-worker estimate for seed s, for any W. The
// lane count is therefore part of the checkpoint fingerprint, while
// the worker count is free to change between runs (and across a
// kill/resume).

// DefaultLanes is the number of RNG lanes a lane-split run uses. It is
// a property of the computation (it determines the estimate), not of
// the machine: worker counts only schedule the lanes.
const DefaultLanes = 8

// Lane is one deterministic RNG lane of a run: a private substream, a
// fixed sample quota, and the partial aggregates accumulated in sample
// order. Lanes are merged in index order.
type Lane struct {
	// Idx is the lane index (merge order).
	Idx int
	// Src is the lane's serializable substream; Rng draws from it, so
	// a kernel may use either and a snapshot of Src.State() captures
	// both.
	Src *Source
	Rng *rand.Rand
	// Quota is the number of samples this lane owns of the run total.
	Quota int
	// Drawn, Hits, Sum are the lane's progress and partial aggregates.
	Drawn int
	Hits  int
	Sum   float64
	// at is what a snapshot records of the lane: its state at its last
	// block boundary, with End once it has drawn its quota.
	at LaneState
}

// Kernel is an estimator's per-lane sampling step. The driver calls it
// once per lane, on the goroutine that will run the lane — per-lane
// scratch lives in the closure — and then calls the returned step once
// per block: m = blockSize samples starting at a multiple of blockSize
// of the lane's samples, or the m < blockSize samples left of the
// lane's quota. step(m) must draw exactly those m samples from the
// lane's stream as a function of the block alone, fold them into
// ln.Sum / ln.Hits, and have written any hoisted generator state back
// to ln.Src before it returns: the driver snapshots the lane between
// steps, and advances ln.Drawn after each. Kernels that share a draw
// order — one evaluating its samples one by one, one 64 to a machine
// word — are then indistinguishable in every checkpoint, lane
// aggregate and estimate.
type Kernel func(ln *Lane) (step func(m int) error)

// Stream says which draws a run owns, and how they are scheduled and
// checkpointed.
type Stream struct {
	// Seed names the lane split: DefaultLanes lanes, lane i at the
	// seed's base state advanced by i LongJumps.
	Seed int64
	// Range, when non-nil, restricts the run to the lanes [Lo,Hi) of a
	// Range.Total-lane split of Seed. Quotas are assigned over the full
	// split first, so a lane's stream and quota never depend on which
	// node runs it, and snapshots are scoped to the range (RangeMethod).
	Range *Range
	// Workers caps the goroutines driving the lanes (≤ 1: the calling
	// goroutine; always clamped to the lane count). It never affects the
	// estimate.
	Workers int
	// Ckpt wires periodic snapshots and resume into the run.
	Ckpt *Ckpt
}

// lanes builds the run's lanes with their quotas of total assigned and
// the method string scoped to the lane range.
func (s Stream) lanes(method string, total int) ([]*Lane, string, error) {
	r := Range{Lo: 0, Hi: DefaultLanes, Total: DefaultLanes}
	if s.Range != nil {
		r = *s.Range
		if err := r.Validate(); err != nil {
			return nil, "", err
		}
	}
	all := splitLanes(s.Seed, r.Total)
	assignQuotas(all, total)
	return all[r.Lo:r.Hi], RangeMethod(method, r), nil
}

// splitLanes derives n non-overlapping lanes from one seed: lane i
// starts at the seed's base state advanced by i LongJumps (2^192
// draws apart).
func splitLanes(seed int64, n int) []*Lane {
	base := newSource(seed)
	lanes := make([]*Lane, n)
	for i := 0; i < n; i++ {
		src := &Source{s: base.s}
		lanes[i] = &Lane{Idx: i, Src: src, Rng: rand.New(src), at: LaneState{RNG: src.State()}}
		base.LongJump()
	}
	return lanes
}

// assignQuotas splits total samples over the lanes deterministically:
// lane i gets ⌊total/L⌋ plus one of the total%L remainder slots, in
// index order.
func assignQuotas(lanes []*Lane, total int) {
	q, rem := total/len(lanes), total%len(lanes)
	for i, ln := range lanes {
		ln.Quota = q
		if i < rem {
			ln.Quota++
		}
	}
}

// TupleSeed derives the deterministic lane seed of answer tuple idx in
// a tuple-splitting parallel engine (splitmix64 finalizer over the run
// seed and the tuple index).
func TupleSeed(seed int64, idx int) int64 {
	x := uint64(seed) ^ (0x9e3779b97f4a7c15 * (uint64(idx) + 1))
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64(x ^ (x >> 31))
}

// Run draws total samples of kernel k from stream s and returns the
// lanes with their aggregates, in lane-index order. It assigns quotas,
// restores s.Ckpt.Resume, runs the lanes with periodic snapshot
// publication, and persists the final boundary.
//
// anytime is a property of the estimator, not a caller's choice: an
// anytime estimator has a reading for a partial run (a widened ε), so
// cancellation stops its lanes cleanly at a block boundary and Run
// returns the partial aggregates with a nil error; one that has none —
// Karp–Luby's relative-error guarantee — gets ctx.Err(), with the last
// published snapshot left behind to resume from.
//
// Every step is one block: it starts at a multiple of blockSize of the
// lane's samples (only a lane's last block may be short), the context
// is polled before each, and snapshots hold lanes at block boundaries
// only — the per-lane cadence is rounded up to whole blocks, and a
// short last block is recorded beside the boundary as the lane's End —
// so a block-drawing kernel's stream does not depend on where a run was
// cut, resumed or checkpointed. A lane whose quota is drawn before its
// first periodic check checks once on drawing it, so a run whose lanes
// each hold less than the per-lane interval still commits.
func Run(ctx context.Context, method string, total int, anytime bool, s Stream, k Kernel) ([]*Lane, error) {
	lanes, method, err := s.lanes(method, total)
	if err != nil {
		return nil, err
	}
	if err := restoreLanes(method, lanes, s.Ckpt); err != nil {
		return nil, err
	}
	lc := newLaneCkpt(method, lanes, s.Ckpt)
	err = runLanes(ctx, lanes, s.Workers, func(ctx context.Context, ln *Lane) error {
		step := k(ln)
		start := ln.Drawn
		lastCheck := start
		at := ln.at
		for ln.Drawn < ln.Quota {
			if err := ctx.Err(); err != nil {
				if anytime {
					break
				}
				return err
			}
			if lc.every > 0 && ln.Drawn-lastCheck >= lc.every {
				lastCheck = ln.Drawn
				if err := lc.publish(ln.Idx, at, true); err != nil {
					return err
				}
			}
			m := min(ln.Quota-ln.Drawn, blockSize)
			if err := step(m); err != nil {
				return err
			}
			ln.Drawn += m
			if m == blockSize {
				at = laneState(ln)
			}
		}
		done := ln.Drawn == ln.Quota
		if done && ln.Drawn > at.Drawn {
			at.End = &LaneEnd{Drawn: ln.Drawn, Hits: ln.Hits, Sum: ln.Sum}
		}
		// A lane that drew its quota without a periodic check checks once
		// on drawing it.
		return lc.publish(ln.Idx, at, lc.every > 0 && done && lastCheck == start && ln.Drawn > start)
	})
	if err != nil {
		return nil, err
	}
	return lanes, lc.finalSave()
}

// BatchFull returns the live-samples mask of an m-sample batch: bit s
// set for every sample s < m of a bit-parallel kernel's word.
func BatchFull(m int) uint64 { return ^uint64(0) >> uint(64-m) }

// isCtxErr reports a pure cancellation error.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// runLanes drives fn over the lanes with at most workers goroutines.
// The first real error cancels the sibling lanes via the derived
// context and is returned (root-cause errors are preferred over the
// cancellations they provoke).
func runLanes(ctx context.Context, lanes []*Lane, workers int, fn func(ctx context.Context, ln *Lane) error) error {
	if workers > len(lanes) {
		workers = len(lanes)
	}
	if workers <= 1 {
		for _, ln := range lanes {
			if err := faultinject.Hit(faultinject.SiteLaneWorker); err != nil {
				return err
			}
			if err := fn(ctx, ln); err != nil {
				return err
			}
		}
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(lanes))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(lanes) {
					return
				}
				err := faultinject.Hit(faultinject.SiteLaneWorker)
				if err == nil {
					err = fn(ctx, lanes[i])
				}
				if err != nil {
					errs[i] = err
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil || (isCtxErr(firstErr) && !isCtxErr(err)) {
			firstErr = err
		}
	}
	return firstErr
}

// laneCkpt serializes concurrent per-lane snapshot publication into
// Ckpt.Save calls. Each lane publishes its state at block boundaries;
// a persisted snapshot assembles the last published state of every
// lane. Lanes are independent streams, so the assembled states need
// not be from the same instant — any combination of per-lane
// boundaries is a valid resume point.
type laneCkpt struct {
	ck     *Ckpt
	method string
	inert  bool
	// base is the global index of the first lane: a lane-range run
	// publishes lanes whose Idx starts at Range.Lo, stored here
	// positionally.
	base int

	// every is a lane's check interval: Ckpt.Every spread over the
	// lanes, rounded up to whole blocks (0 disables periodic checks).
	every int

	mu         sync.Mutex
	lanes      []LaneState
	savedDrawn int // total Drawn at the last persisted (or restored) snapshot
	// progress is the run samples the checks since the last periodic
	// commit stand for: every per check, over all lanes.
	progress int
}

func laneState(ln *Lane) LaneState {
	return LaneState{Drawn: ln.Drawn, Hits: ln.Hits, Sum: ln.Sum, RNG: ln.Src.State()}
}

// newLaneCkpt builds the checkpoint publisher for a lane run; it is
// inert (all methods no-ops) when ck is nil or has no Save hook.
func newLaneCkpt(method string, lanes []*Lane, ck *Ckpt) *laneCkpt {
	lc := &laneCkpt{ck: ck, method: method}
	if ck == nil || ck.Save == nil {
		lc.inert = true
		return lc
	}
	lc.base = lanes[0].Idx
	if ck.Every > 0 {
		lc.every = (max(1, ck.Every/len(lanes)) + blockSize - 1) / blockSize * blockSize
	}
	lc.lanes = make([]LaneState, len(lanes))
	for i, ln := range lanes {
		lc.lanes[i] = ln.at
		lc.savedDrawn += ln.Drawn
	}
	return lc
}

// publish records lane idx's state st at a block boundary. With check
// set it counts one check — periodic, or a lane's only one on drawing
// its quota — which stands for every samples of the run, and persists
// the assembled multi-lane snapshot once the checks since the last
// commit stand for Ckpt.Every samples (skipped when nothing was drawn
// since the last persisted one). A run then
// commits once per Every of its samples, and how often is a function
// of the quotas, the lane count and Every, never of the scheduling.
func (lc *laneCkpt) publish(idx int, st LaneState, check bool) error {
	if lc.inert {
		return nil
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.lanes[idx-lc.base] = st
	if !check {
		return nil
	}
	if lc.progress += lc.every; lc.progress < lc.ck.Every {
		return nil
	}
	lc.progress = 0
	return lc.saveLocked()
}

// finalSave persists the boundary snapshot after the lanes joined:
// after a cancellation it is the state a restart resumes from; after
// completion it makes a re-run an instant replay.
func (lc *laneCkpt) finalSave() error {
	if lc.inert {
		return nil
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.saveLocked()
}

func (lc *laneCkpt) saveLocked() error {
	st := LoopState{Method: lc.method}
	for _, l := range lc.lanes {
		r := l.reached()
		st.Drawn += r.Drawn
		st.Hits += r.Hits
		st.Sum += r.Sum
	}
	if st.Drawn == lc.savedDrawn {
		return nil
	}
	st.RNG = lc.lanes[0].RNG
	st.LaneCount = len(lc.lanes)
	st.Lanes = append([]LaneState(nil), lc.lanes...)
	lc.savedDrawn = st.Drawn
	return lc.ck.Save(st)
}

// ErrResumeMismatch reports a snapshot that cannot resume the run at
// hand: wrong estimator method (including a different lane range or
// world stream), a lane-count mismatch, an implausible state — among
// them a lane stopped inside a block —, or an undecodable RNG state.
// It separates "this snapshot belongs to a different computation" from
// disk corruption — a caller holding a shipped
// snapshot falls back to a clean restart on it rather than failing.
var ErrResumeMismatch = errors.New("mc: snapshot does not match this run")

// restoreLanes applies ck.Resume (if any) to the lanes: per-lane
// counters and RNG states. Lane count mismatches are rejected — the
// estimate is a function of the lane count, so resuming across counts
// would silently change it — and so is a snapshot without lane states
// (LaneCount 0), which no run writes. A lane must stand at a block
// boundary: a block's draw depends on the whole block, so a lane
// stopped inside one has no continuation. Its End, less than a block
// past the boundary, is restored when it ends this run's quota of the
// lane; a run with another quota goes on from the boundary. Every
// rejection wraps ErrResumeMismatch.
func restoreLanes(method string, lanes []*Lane, ck *Ckpt) error {
	if ck == nil || ck.Resume == nil {
		return nil
	}
	st := ck.Resume
	if st.Method != method {
		return fmt.Errorf("%w: snapshot was taken by estimator %q, cannot resume %q", ErrResumeMismatch, st.Method, method)
	}
	if st.LaneCount != len(lanes) || len(st.Lanes) != st.LaneCount {
		return fmt.Errorf("%w: snapshot has %d lanes (%d lane states), cannot resume a %d-lane run",
			ErrResumeMismatch, st.LaneCount, len(st.Lanes), len(lanes))
	}
	for i, ln := range lanes {
		ls := st.Lanes[i]
		if ls.Drawn < 0 || ls.Hits < 0 || ls.Hits > ls.Drawn {
			return fmt.Errorf("%w: implausible snapshot state for lane %d: drawn=%d hits=%d", ErrResumeMismatch, i, ls.Drawn, ls.Hits)
		}
		if ls.Drawn%blockSize != 0 {
			return fmt.Errorf("%w: lane %d stopped at sample %d, inside a %d-sample block", ErrResumeMismatch, i, ls.Drawn, blockSize)
		}
		if e := ls.End; e != nil && (e.Drawn <= ls.Drawn || e.Drawn-ls.Drawn >= blockSize || e.Hits < ls.Hits || e.Hits > e.Drawn) {
			return fmt.Errorf("%w: lane %d ends at drawn=%d hits=%d, not within the block after drawn=%d hits=%d",
				ErrResumeMismatch, i, e.Drawn, e.Hits, ls.Drawn, ls.Hits)
		}
		if err := ln.Src.SetState(ls.RNG); err != nil {
			return fmt.Errorf("%w: lane %d: %v", ErrResumeMismatch, i, err)
		}
		ln.Drawn, ln.Hits, ln.Sum = ls.Drawn, ls.Hits, ls.Sum
		ln.at = ls
		if e := ls.End; e != nil && e.Drawn == ln.Quota {
			ln.Drawn, ln.Hits, ln.Sum = e.Drawn, e.Hits, e.Sum
		} else {
			ln.at.End = nil
		}
	}
	return nil
}
