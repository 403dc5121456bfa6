package mc

// Checkpoint plumbing for the sampling driver. Every estimator in this
// package is a loop drawing i.i.d. samples from a PRNG stream; its
// complete state at a sample boundary is the number of samples drawn,
// the running aggregate (sum or hit count), and the PRNG state. A
// LoopState captures exactly that, so a run resumed from a snapshot
// consumes the identical remainder of the stream an uninterrupted run
// would have — the resumed estimate is bit-identical, and every
// statistical guarantee derived for the uninterrupted run carries over
// unchanged.

// LoopState is the serializable state of one estimator loop at a
// sample boundary: LaneCount and Lanes hold every lane of the run (or
// of its lane range), and the scalar fields carry the cross-lane
// totals.
type LoopState struct {
	// Method names the estimator that produced the state ("hoeffding",
	// "padded", "rare-event", "karp-luby"); restoring into a different
	// estimator is rejected.
	Method string `json:"method"`
	// Drawn is the number of samples already drawn (total across lanes,
	// a lane's End where it has one; so are Hits and Sum).
	Drawn int `json:"drawn"`
	// Hits is the success count of counting estimators (total across
	// lanes).
	Hits int `json:"hits,omitempty"`
	// Sum is the running sum of mean estimators (total across lanes).
	Sum float64 `json:"sum,omitempty"`
	// RNG is lane 0's PRNG state; Lanes is authoritative.
	RNG RNGState `json:"rng"`
	// LaneCount is the number of entries in Lanes. A snapshot resumes
	// only into a run with the identical lane count — the estimate is a
	// function of it. Zero, the schema of the retired sequential stream,
	// resumes no run.
	LaneCount int `json:"lane_count,omitempty"`
	// Lanes holds the per-lane states, in lane index order.
	Lanes []LaneState `json:"lanes,omitempty"`
}

// LaneState is the serializable state of one lane at a block boundary.
type LaneState struct {
	// Drawn is the number of samples this lane has drawn.
	Drawn int `json:"drawn"`
	// Hits / Sum are the lane's partial aggregates.
	Hits int     `json:"hits,omitempty"`
	Sum  float64 `json:"sum,omitempty"`
	// RNG is the lane's PRNG state immediately after its sample Drawn.
	RNG RNGState `json:"rng"`
	// End is set once the lane has drawn a quota that ends in a short
	// block. A short block's draw depends on its length, so the fields
	// above stay at the last block boundary, where a run with a larger
	// quota (the same job resumed without its sample budget) goes on;
	// a run with the same quota restores End and draws nothing more.
	End *LaneEnd `json:"end,omitempty"`
}

// LaneEnd is a lane's progress and aggregates at the end of its quota.
type LaneEnd struct {
	Drawn int     `json:"drawn"`
	Hits  int     `json:"hits,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
}

// reached is what the lane state stands for: its End, if it has one.
func (l LaneState) reached() LaneEnd {
	if l.End != nil {
		return *l.End
	}
	return LaneEnd{Drawn: l.Drawn, Hits: l.Hits, Sum: l.Sum}
}

// Ckpt wires periodic checkpointing into a sampling loop. The loop
// calls Save at block boundaries (see Run): every Every samples, on
// context cancellation (so a drained or deadline-hit run remains
// resumable), and once more at completion. A Save error aborts the run — silent
// loss of durability is not an option in the robustness line. Resume,
// when non-nil, restores the loop to a previously saved state before
// the first draw.
type Ckpt struct {
	// Every is the number of run samples between periodic snapshots
	// (<= 0 disables them; boundary saves still fire). A lane checks
	// every Every/lanes of its samples, rounded up to whole blocks — a
	// lane whose quota is shorter, once on drawing it — and a check
	// commits once the checks since the last commit stand for Every
	// samples, so a crash loses O(Every + workers × that interval)
	// samples.
	Every int
	// Save persists one snapshot; an error aborts the estimator.
	Save func(LoopState) error
	// Resume, when non-nil, is the state to continue from.
	Resume *LoopState
}
