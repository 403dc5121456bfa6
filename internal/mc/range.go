package mc

import (
	"fmt"
	"sort"
)

// Lane-range runs: the distribution primitive behind the qrelcoord
// cluster. A lane-split estimation (see driver.go) is a pure function of
// (seed, lane count): lane i's RNG stream and sample quota are derived
// from the seed and the *total* lane count alone, never from where the
// lane runs. A Range therefore names a contiguous subset [Lo,Hi) of the
// Total-lane split, and a run whose Stream carries it executes exactly
// those lanes — same streams, same quotas, same kernel as the
// single-node run. MergeMean reassembles the full-run estimate from per-lane
// aggregates in lane-index order, reproducing the single-node float
// operation sequence bit for bit, for any partition of the lanes across
// nodes.

// Range selects the lane subrange [Lo,Hi) of a Total-lane split.
type Range struct {
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
	Total int `json:"total"`
}

// Validate rejects malformed ranges (0 ≤ Lo < Hi ≤ Total required).
func (r Range) Validate() error {
	if r.Total <= 0 || r.Lo < 0 || r.Hi <= r.Lo || r.Hi > r.Total {
		return fmt.Errorf("mc: invalid lane range [%d,%d) of %d", r.Lo, r.Hi, r.Total)
	}
	return nil
}

// Len is the number of lanes in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Full reports whether the range covers the whole split.
func (r Range) Full() bool { return r.Lo == 0 && r.Hi == r.Total }

func (r Range) String() string { return fmt.Sprintf("%d-%d/%d", r.Lo, r.Hi, r.Total) }

// RangeMethod scopes an estimator's checkpoint method string to a lane
// range. A full range keeps the base name, so full-range checkpoints
// interchange with plain lane-split runs; a proper subrange embeds the
// range, so a snapshot of one range is refused by another (their lane
// streams differ) — by the driver on resume, and by the coordinator
// validating a shipped snapshot against the range it is about to
// re-plant.
func RangeMethod(base string, r Range) string {
	if r.Full() {
		return base
	}
	return fmt.Sprintf("%s@%s", base, r)
}

// SplitRanges partitions a total-lane split into parts contiguous
// near-equal ranges, in order: range i gets ⌊total/parts⌋ lanes plus
// one of the total%parts remainder lanes. parts is clamped to total.
func SplitRanges(total, parts int) []Range {
	if parts > total {
		parts = total
	}
	if parts <= 0 {
		return nil
	}
	q, rem := total/parts, total%parts
	out := make([]Range, parts)
	lo := 0
	for i := range out {
		n := q
		if i < rem {
			n++
		}
		out[i] = Range{Lo: lo, Hi: lo + n, Total: total}
		lo += n
	}
	return out
}

// LaneAgg is one lane's raw aggregate — the unit a range run ships back
// to the coordinator. Merging must happen on these raw per-lane values
// in lane-index order (never on per-node subtotals): float addition is
// not associative, and only the lane-order sum reproduces the
// single-node estimate bit for bit.
type LaneAgg struct {
	Idx   int     `json:"idx"`
	Quota int     `json:"quota"`
	Drawn int     `json:"drawn"`
	Hits  int     `json:"hits"`
	Sum   float64 `json:"sum"`
}

// MergeMean reassembles the full-run Hoeffding Estimate from per-lane
// aggregates collected across range runs. It demands exact coverage of
// the total-lane split — every lane present exactly once, with exactly
// the quota the driver would have given it (lane-quota conservation:
// reassignment may move a lane between nodes but never change what it
// owes) — and then folds them exactly as EstimateMean folds its own
// lanes, so the merged Value is bit-identical to the single-node
// estimate for the same (seed, eps, delta, maxSamples).
func MergeMean(aggs []LaneAgg, total int, eps, delta float64, maxSamples int) (Estimate, error) {
	if total <= 0 {
		return Estimate{}, fmt.Errorf("mc: merge over %d lanes", total)
	}
	if len(aggs) != total {
		return Estimate{}, fmt.Errorf("mc: lane coverage: %d aggregates for a %d-lane split", len(aggs), total)
	}
	requested, t, err := hoeffdingPlan(eps, delta, maxSamples)
	if err != nil {
		return Estimate{}, err
	}
	q, rem := t/total, t%total
	sorted := append([]LaneAgg(nil), aggs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Idx < sorted[j].Idx })
	for i, a := range sorted {
		if a.Idx != i {
			return Estimate{}, fmt.Errorf("mc: lane coverage: lane %d missing or duplicated (got idx %d)", i, a.Idx)
		}
		want := q
		if i < rem {
			want++
		}
		if a.Quota != want {
			return Estimate{}, fmt.Errorf("mc: lane %d quota %d, want %d — quota conservation violated", i, a.Quota, want)
		}
		if a.Drawn < 0 || a.Drawn > a.Quota || a.Hits < 0 || a.Hits > a.Drawn {
			return Estimate{}, fmt.Errorf("mc: implausible aggregate for lane %d: drawn=%d hits=%d quota=%d", i, a.Drawn, a.Hits, a.Quota)
		}
	}
	est := hoeffdingEstimate(sorted, requested, eps, delta)
	if est.Samples == 0 {
		return Estimate{}, fmt.Errorf("%w: no lane drew a sample", ErrNoSamples)
	}
	return est, nil
}
