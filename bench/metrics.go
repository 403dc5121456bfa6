package main

import (
	"math"
	"slices"
	"time"
)

// metricDef describes one named metric. The two tables below are the
// single definition of what the benchmark reports; BENCHMARK.json is
// checked against them by TestBenchmarkJSONMatchesTables.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline median it may worsen by
}

// endToEnd are the metrics a user of qrel sees. Every workload reports
// every one of them (the driver's contract), so they are the five that
// are defined — and never zero — on all five workloads. The ISSUE's
// workload-specific end-to-end metrics (samples_per_s,
// ingest_tuples_per_s, scan_tuples_per_s, load_db_ms,
// bytes_per_user_byte) are reported as per-layer metrics instead; with
// a fixed rotation they are a constant multiple of throughput_rps, so
// the gate on throughput_rps already covers them. fail_share is the
// failed/attempted pair of the result line: any failure makes the
// command exit non-zero.
//
// The bounds are what the reference box can resolve, not what one would
// wish: ten runs of unchanged code at ten seeds spread (inter-quartile
// range over median) by 4–17 % on the time metrics and up to 4 % on
// allocation (README.md has the table; a pure ALU loop on the same box
// varies ±8 % between half-second chunks). A bound below the spread
// would reject unchanged code. Claims finer than a bound need the
// paired-run protocol of the choosing-metrics guide.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"req_p50_ms", "ms", "lower", 0.25},
	{"req_p95_ms", "ms", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"alloc_kb_per_req", "KiB", "lower", 0.10},
}

// perLayer are the single-layer metrics of the traced run, layer =
// module name before the first dot. A workload that does not exercise
// a layer reports 0 for its metrics; README.md maps each metric to the
// workload that owns it and the end-to-end metric it should move.
var perLayer = []metricDef{
	{"logic.parse_us", "us", "lower", 0},
	{"logic.eval_sentence_us", "us", "lower", 0},
	{"logic.self_share", "share", "lower", 0},
	{"unreliable.parse_db_ms", "ms", "lower", 0},
	{"unreliable.worlds_per_s", "1/s", "higher", 0},
	{"unreliable.sample_world_ns", "ns", "lower", 0},
	{"core.engine_ms.qfree", "ms", "lower", 0},
	{"core.engine_ms.safe-plan", "ms", "lower", 0},
	{"core.engine_ms.world-enum", "ms", "lower", 0},
	{"core.engine_ms.lineage-bdd", "ms", "lower", 0},
	{"core.engine_ms.lineage-kl", "ms", "lower", 0},
	{"core.engine_ms.monte-carlo", "ms", "lower", 0},
	{"core.engine_ms.monte-carlo-direct", "ms", "lower", 0},
	{"core.engine_ms.monte-carlo-rare", "ms", "lower", 0},
	{"core.dispatch_overhead_us", "us", "lower", 0},
	{"core.abandoned_rungs_per_req", "count", "lower", 0},
	{"core.rung_useful_ratio", "ratio", "higher", 0},
	{"core.auto_vs_best_ratio", "ratio", "lower", 0},
	{"core.self_share", "share", "lower", 0},
	{"safeplan.allocs_per_op", "count", "lower", 0},
	{"bdd.build_ms", "ms", "lower", 0},
	{"bdd.prob_ms", "ms", "lower", 0},
	{"bdd.nodes", "count", "lower", 0},
	{"mc.samples_per_s.compiled", "1/s", "higher", 0},
	{"mc.samples_per_s.interpreted", "1/s", "higher", 0},
	{"mc.samples_per_s.sequential", "1/s", "higher", 0},
	{"mc.par_speedup_2", "ratio", "higher", 0},
	{"karpluby.samples_per_s.compiled", "1/s", "higher", 0},
	{"karpluby.samples_per_s.interpreted", "1/s", "higher", 0},
	{"vm.compile_us", "us", "lower", 0},
	{"checkpoint.save_ms", "ms", "lower", 0},
	{"checkpoint.load_ms", "ms", "lower", 0},
	{"checkpoint.bytes_per_snapshot", "B", "lower", 0},
	{"checkpoint.saves_per_run", "count", "lower", 0},
	{"server.floor_us", "us", "lower", 0},
	{"server.overhead_ms", "ms", "lower", 0},
	{"server.p99_ms", "ms", "lower", 0},
	{"server.shed_share", "share", "lower", 0},
	{"server.engine_busy_share", "share", "lower", 0},
	{"server.max_rate_ok_rps", "1/s", "higher", 0},
	{"server.store_req_extra_us", "us", "lower", 0},
	{"server.self_share", "share", "lower", 0},
	{"cluster.fanout_vs_single_ratio", "ratio", "lower", 0},
	{"cluster.proxy_overhead_ms", "ms", "lower", 0},
	{"cluster.trail_events_per_req", "count", "lower", 0},
	{"cluster.retries_per_req", "count", "lower", 0},
	{"cluster.attest_failures", "count", "lower", 0},
	{"cluster.p99_ms", "ms", "lower", 0},
	{"cluster.self_share", "share", "lower", 0},
	{"store.commit_ms", "ms", "lower", 0},
	{"store.open_ms", "ms", "lower", 0},
	{"store.verify_ms", "ms", "lower", 0},
	{"store.load_db_ms", "ms", "lower", 0},
	{"store.ingest_tuples_per_s", "1/s", "higher", 0},
	{"store.scan_tuples_per_s", "1/s", "higher", 0},
	{"store.bytes_per_user_byte", "ratio", "lower", 0},
	{"store.pool_hit_ratio.fit", "ratio", "higher", 0},
	{"store.pool_hit_ratio.small", "ratio", "higher", 0},
	{"store.misses_per_scan", "count", "lower", 0},
	{"store.evictions_per_scan.small", "count", "lower", 0},
	{"store.self_share", "share", "lower", 0},
	{"ra.pipeline_tuples_per_s.memory", "1/s", "higher", 0},
	{"ra.pipeline_tuples_per_s.paged_fit", "1/s", "higher", 0},
	{"ra.pipeline_tuples_per_s.paged_small", "1/s", "higher", 0},
	{"ra.self_share", "share", "lower", 0},
	{"bench.samples_per_s", "1/s", "higher", 0},
	{"bench.late_p99_ms", "ms", "lower", 0},
	{"bench.self_share", "share", "lower", 0},
	{"bench.trace_overhead_share", "share", "lower", 0},
}

// value is one reported number with its unit, as the result line
// carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill returns a metric map holding every definition of defs: the
// measured value where got has one, 0 otherwise. A name in got that no
// definition knows is a bug in the harness and panics.
func fill(defs []metricDef, got map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: got[d.Name], Unit: d.Unit}
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			panic("bench: metric " + name + " is not in the metric tables")
		}
	}
	return out
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// nearestRank is the 1-based position of the p-th percentile (0 < p ≤
// 100) in an ascending sample of n: ⌈p·n/100⌉, at least 1. The small
// subtraction keeps 99.9 % of 10000 at 9990 despite binary rounding.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return rank
}

// percentile returns the nearest-rank p-th percentile of an
// ascending-sorted sample; 0 for an empty one.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(p, len(sorted))-1]
}

// sortedCopy returns an ascending copy of d.
func sortedCopy(d []time.Duration) []time.Duration {
	s := slices.Clone(d)
	slices.Sort(s)
	return s
}

// median of a duration sample (nearest rank).
func median(d []time.Duration) time.Duration { return percentile(sortedCopy(d), 50) }

// tailCandidates are the percentiles the harness may report as "the
// tail", in rising order.
var tailCandidates = []float64{50, 90, 95, 99, 99.9}

// supportedTail picks the highest candidate percentile that still has
// at least ten samples beyond it — the highest tail an n-sample run
// can state without reading single outliers.
func supportedTail(n int) float64 {
	best := tailCandidates[0]
	for _, p := range tailCandidates {
		if n-nearestRank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// medianF is the median of a float sample (mean of the middle pair for
// an even count); 0 for an empty one.
func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
