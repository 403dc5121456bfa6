package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"qrel/internal/faultinject"
	"qrel/internal/logic"
	"qrel/internal/mc"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// sampling is one run of a sampling engine as its prologue opened it.
type sampling struct {
	engine string
	opts   Options
	class  logic.Class
	run    *ckptRun
	resume *engineState
}

// startSampling is the prologue of the sampling engines: option
// defaults, the engine's fault site, admit's verdict on the query, and
// the checkpoint plumbing with the snapshot to continue, if any.
func startSampling(ctx context.Context, site, engine string, f logic.Formula, opts Options, admit func(logic.Formula) error) (context.Context, *sampling, error) {
	ctx = orBackground(ctx)
	opts = opts.withDefaults()
	if err := faultinject.Hit(site); err != nil {
		return ctx, nil, err
	}
	if err := admit(f); err != nil {
		return ctx, nil, err
	}
	run, resume, err := newCkptRun(opts.Checkpoint, engine, f, opts)
	if err != nil {
		return ctx, nil, err
	}
	return ctx, &sampling{engine: engine, opts: opts, class: logic.Classify(f), run: run, resume: resume}, nil
}

// polyTime admits the polynomial-time evaluable queries, those
// Theorem 5.12 covers; second-order ones are left to WorldEnum.
func polyTime(name string) func(logic.Formula) error {
	return func(f logic.Formula) error {
		if cls := logic.Classify(f); cls == logic.ClassSecondOrder {
			return fmt.Errorf("core: %s requires a polynomial-time evaluable query, got %v", name, cls)
		}
		return nil
	}
}

// result is the Result of a run whose est estimates 1 − R, reported
// beside the expected error h it stands for.
func (s *sampling) result(est mc.Estimate, h float64, k int, plan evalPlan) Result {
	return Result{
		HFloat:        h,
		RFloat:        1 - est.Value,
		Arity:         k,
		Engine:        s.engine,
		Guarantee:     AbsoluteError,
		Eps:           est.Eps,
		Delta:         s.opts.Delta,
		Samples:       est.Samples,
		Class:         s.class,
		Degraded:      est.Partial,
		Seed:          s.opts.Seed,
		Resumed:       s.run.wasResumed(),
		EvalMode:      plan.mode,
		FallbackTrail: plan.trail,
	}
}

// stream names the draws of one estimator run: the lane split of seed,
// scheduled on Workers goroutines.
func (s *sampling) stream(seed int64) mc.Stream {
	return mc.Stream{Seed: seed, Workers: s.opts.Workers}
}

// tupleCount returns n^k, the number of answer tuples of a k-ary query.
func tupleCount(n, k int) float64 {
	c := float64(1)
	for i := 0; i < k; i++ {
		c *= float64(n)
	}
	return c
}

// A tupleEstimator estimates ν(ψ(ā)) = Pr[B ⊨ ψ(ā)] for one answer
// tuple; Eps is read only from an anytime one.
type tupleEstimator func(ctx context.Context, tc tupleCall) (mc.Estimate, error)

// tupleCall is one answer tuple's estimation task.
type tupleCall struct {
	idx        int // position in rel.ForEachTuple order
	t          rel.Tuple
	env        logic.Env // the query's free variables bound to t
	eps, delta float64   // Corollary 5.5's per-tuple accuracy ε/n^k, δ/n^k
	left       int       // what Budget.MaxSamples leaves; 0 when unset
	stream     mc.Stream
}

// perTuple is Corollary 5.5's reduction, the one tuple loop of the
// per-tuple engines: ν(ψ(ā)) is estimated for each of the n^k answer
// tuples at (ε/n^k, δ/n^k) — tuple idx drawing from the lanes of
// mc.TupleSeed(Seed, idx) — and H(ā) = Pr[ψ(ā)^B ≠ ψ(ā)^A] summed, so
// Pr[|R − estimate| > ε] < δ.
//
// One function, save, writes a snapshot: Tuple counts the tuples already
// in HFloat, and each tuple re-derives its lanes, so a resumed run
// replays what an uninterrupted one draws. It runs
// every CheckpointConfig.Every samples, at completion, and at the start
// of the tuple a run was stopped in.
//
// As in mc.Run, what a stop means belongs to the estimator. An anytime
// one (padded) keeps a cut tuple's widened reading, fills the rest with
// the midpoint 1/2 at error 1/2 and reports Degraded with Eps re-summed;
// only a stop before any sample is an error. Karp–Luby returns the
// cancellation, or its estimator's ErrBudgetExceeded.
func (s *sampling) perTuple(ctx context.Context, db *unreliable.DB, f logic.Formula, anytime bool, plan evalPlan, estimate tupleEstimator) (Result, error) {
	opts := s.opts
	vars := logic.FreeVars(f)
	k := len(vars)
	normF := tupleCount(db.A.N, k)
	epsT, deltaT := opts.Eps/normF, opts.Delta/normF
	var h, epsSum float64
	samples, done := 0, 0 // done: the tuples whose H(ā) is in h
	if st := s.resume; st != nil {
		done, h, epsSum, samples = st.Tuple, st.HFloat, st.EpsSum, st.Samples
	}
	lastSaved := samples
	save := func() error {
		if s.run == nil {
			return nil
		}
		lastSaved = samples
		return s.run.save(engineState{Tuple: done, HFloat: h, EpsSum: epsSum, Samples: samples})
	}
	midpoint := func() {
		h += 0.5
		epsSum += 0.5
	}
	stopped := false // an anytime run was cut short: the rest is the midpoint
	var loopErr error
	// stop ends a run cut short by err at the start of tuple done and
	// reports whether the loop goes on (anytime: on the midpoint). Its
	// snapshot lets a drained run, or one rerun with a larger budget,
	// resume there; Karp–Luby, stopped between tuples, writes it only if
	// it drew since the last one.
	stop := func(err error, between bool) bool {
		if anytime || !between || samples != lastSaved {
			if loopErr = save(); loopErr != nil {
				return false
			}
		}
		if !anytime {
			loopErr = err
			return false
		}
		stopped = true
		return true
	}
	prep := logic.Prepare(f)
	env := logic.Env{}
	idx := -1
	rel.ForEachTuple(db.A.N, k, func(t rel.Tuple) bool {
		idx++
		switch {
		case idx < done:
			return true // restored from the snapshot
		case stopped:
			midpoint()
			return true
		}
		left := 0
		if opts.Budget.MaxSamples > 0 {
			left = opts.Budget.MaxSamples - samples
		}
		if err := ctx.Err(); err != nil || (anytime && opts.Budget.MaxSamples > 0 && left <= 0) {
			if !stop(err, true) {
				return false
			}
			midpoint()
			return true
		}
		obs, err := prep.Holds(db.A, t)
		if err != nil {
			loopErr = err
			return false
		}
		for i, v := range vars {
			env[v] = t[i]
		}
		est, err := estimate(ctx, tupleCall{idx: idx, t: t, env: env, eps: epsT, delta: deltaT, left: left,
			stream: s.stream(mc.TupleSeed(opts.Seed, idx))})
		if err != nil && !errors.Is(err, mc.ErrNoSamples) && !errors.Is(err, ErrBudgetExceeded) && !isCtxErr(err) {
			loopErr = err
			return false
		}
		if err != nil || est.Partial {
			// Stopped inside the tuple: a resumed run replays it in full.
			if !stop(err, false) {
				return false
			}
			if err != nil {
				midpoint()
				return true
			}
			// A partial tuple keeps its widened reading for this run's
			// degraded result only.
		}
		samples += est.Samples
		epsSum += est.Eps
		if obs {
			h += 1 - est.Value
		} else {
			h += est.Value
		}
		if stopped {
			return true
		}
		done = idx + 1
		if s.run != nil && samples-lastSaved >= s.run.every() {
			loopErr = save()
		}
		return loopErr == nil
	})
	if loopErr != nil {
		return Result{}, loopErr
	}
	if !stopped && samples != lastSaved {
		// Completion snapshot: resuming a finished run is an instant replay.
		if err := save(); err != nil {
			return Result{}, err
		}
	}
	eps := opts.Eps
	if stopped {
		if samples == 0 {
			// Nothing was estimated at all; there is no partial result to
			// report honestly.
			return Result{}, fmt.Errorf("%w: canceled or out of budget before any sample", mc.ErrNoSamples)
		}
		eps = math.Min(1, epsSum/normF)
	}
	return s.result(mc.Estimate{Value: h / normF, Samples: samples, Eps: eps, Partial: stopped}, h, k, plan), nil
}
