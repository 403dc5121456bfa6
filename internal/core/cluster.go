package core

import (
	"encoding/json"
	"fmt"

	"qrel/internal/checkpoint"
	"qrel/internal/mc"
)

// The records a cluster coordinator (internal/cluster) exchanges with
// the lane-range runs it fans a monte-carlo-direct estimation out to
// (Options.LaneRange): the per-lane aggregates a range run returns, and
// the checkpoint frames it ships. Core owns both; the coordinator's own
// trail of where each range ran is server.ClusterStep.

// LaneRangeResult is the payload of a lane-range run, and the lane_range
// object of a qreld response: the raw per-lane aggregates of the lanes
// [Lo, Hi), plus what the merge cross-checks across replicas.
type LaneRangeResult struct {
	// Range is the lane subrange this run executed.
	mc.Range
	// Method names the base estimator ("hoeffding").
	Method string `json:"method"`
	// Requested is the full-run sample size implied by (Eps, Delta) —
	// identical on every replica of the same request.
	Requested int `json:"requested"`
	// NormF is the n^k normalizer of the query on this database; the
	// merged mean times NormF is HFloat. Identical on every replica.
	NormF float64 `json:"norm_f"`
	// Lanes holds the raw per-lane aggregates in lane-index order.
	Lanes []mc.LaneAgg `json:"lanes"`
}

// CheckRangeFrame holds a shipped monte-carlo-direct checkpoint frame
// to the lane range rg of a run under seed, without the query, and
// returns its sample count (the shipping sequence number). The run that
// resumes the frame re-checks the full fingerprint (query, accuracy).
// Arbitrary input yields an error, never a panic.
func CheckRangeFrame(frame []byte, seed int64, rg mc.Range) (int, error) {
	payload, err := checkpoint.DecodeFrame(frame)
	if err != nil {
		return 0, err
	}
	var st engineState
	if err := json.Unmarshal(payload, &st); err != nil {
		return 0, fmt.Errorf("core: undecodable shipped snapshot: %w", err)
	}
	if st.Engine != string(EngineMCDirect) {
		return 0, fmt.Errorf("core: shipped snapshot is for engine %q, want %q", st.Engine, EngineMCDirect)
	}
	if st.Seed != seed {
		return 0, fmt.Errorf("core: shipped snapshot is for seed %d, this run uses %d", st.Seed, seed)
	}
	if st.Lanes != rg.Total {
		return 0, fmt.Errorf("core: shipped snapshot splits %d lanes, this run splits %d", st.Lanes, rg.Total)
	}
	if st.Loop == nil {
		return 0, fmt.Errorf("core: shipped snapshot carries no estimator loop state")
	}
	if want := mc.RangeMethod(mc.MeanMethod, rg); st.Loop.Method != want {
		return 0, fmt.Errorf("core: shipped snapshot is from estimator %q, range %s needs %q", st.Loop.Method, rg, want)
	}
	if n := rg.Hi - rg.Lo; st.Loop.LaneCount != n {
		return 0, fmt.Errorf("core: shipped snapshot holds %d lane states, range %s needs %d", st.Loop.LaneCount, rg, n)
	}
	if len(st.Loop.Lanes) != st.Loop.LaneCount {
		return 0, fmt.Errorf("core: shipped snapshot declares %d lanes but carries %d states", st.Loop.LaneCount, len(st.Loop.Lanes))
	}
	if st.Samples < 0 || st.Loop.Drawn != st.Samples {
		return 0, fmt.Errorf("core: shipped snapshot sample counts disagree (%d vs loop %d)", st.Samples, st.Loop.Drawn)
	}
	return st.Samples, nil
}
