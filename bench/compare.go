package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"slices"
)

// resultFile is what -out writes and -compare reads: where the runs
// were taken and every pass of every run. A record's Attempted is the
// workload's operation count.
type resultFile struct {
	Env  environment `json:"env"`
	Runs []record    `json:"runs"`
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// appendResults adds the records to a result file, creating it with
// this process's environment. A file taken in another environment is
// refused: its runs would not be repetitions of these.
func appendResults(path string, records []record) error {
	env := currentEnvironment()
	f, err := readResults(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		f = &resultFile{Env: env}
	case err != nil:
		return err
	case f.Env != env:
		return fmt.Errorf("%s was taken in another environment (%+v, now %+v)", path, f.Env, env)
	}
	f.Runs = append(f.Runs, records...)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}

// quartiles returns Q1, Q2, Q3 as Python's statistics.quantiles(v, n=4)
// (the exclusive method) gives them; v needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is a sample's inter-quartile range as a share of its median;
// 0 for fewer than two values.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// verdict judges one end-to-end metric on one workload: b against the
// baseline a, by the rule of the choosing-metrics guide. It also
// returns the share by which b's median is worse and the wider of the
// two spreads.
func verdict(def metricDef, a, b []float64) (v string, worse, sp float64) {
	ma, mb := medianF(a), medianF(b)
	worse = (mb - ma) / ma
	allBetter := slices.Min(a) > slices.Max(b)
	if def.Better == "higher" {
		worse = -worse
		allBetter = slices.Max(a) < slices.Min(b)
	}
	sp = max(spread(a), spread(b))
	switch {
	case allBetter && -worse > spread(a):
		return "improved", worse, sp
	case sp > def.Bound:
		return "unresolved", worse, sp
	case worse > def.Bound:
		return "regressed", worse, sp
	default:
		return "unchanged", worse, sp
	}
}

// exactCounts are the per-layer metrics that are counts made by the
// program and must repeat exactly between two sets of runs of one code.
var exactCounts = []string{
	"store.bytes_per_user_byte", "store.misses_per_scan", "store.evictions_per_scan.small",
	"store.pool_hit_ratio.fit", "store.pool_hit_ratio.small",
	"bdd.nodes", "checkpoint.saves_per_run",
	"core.abandoned_rungs_per_req", "cluster.trail_events_per_req", "cluster.attest_failures",
}

// series collects the values of one metric on one workload from the
// passes of a file (traced or untraced).
func series(f *resultFile, workload, metric string, traced bool) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Traced == traced {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// sameExperiment refuses two files whose runs are not repetitions of the
// same experiment: another GOMAXPROCS, seed, run length, or — for the
// open loop, whose count is fixed by rate × time — operation count.
func sameExperiment(a, b *resultFile) error {
	if a.Env.GOMAXPROCS != b.Env.GOMAXPROCS {
		return fmt.Errorf("GOMAXPROCS differs: %d against %d", a.Env.GOMAXPROCS, b.Env.GOMAXPROCS)
	}
	type key struct {
		seed    int64
		seconds float64
		ops     int
	}
	shape := func(f *resultFile) map[string]key {
		m := map[string]key{}
		for _, r := range f.Runs {
			k := key{seed: r.Seed, seconds: r.Seconds}
			if r.Workload == "serve-open" && !r.Traced {
				k.ops = r.Attempted
			}
			name := fmt.Sprintf("%s/traced=%v", r.Workload, r.Traced)
			if prev, ok := m[name]; ok && prev != k {
				m[name] = key{seed: -1} // mixed within one file
			} else if !ok {
				m[name] = k
			}
		}
		return m
	}
	sa, sb := shape(a), shape(b)
	for name, ka := range sa {
		kb, ok := sb[name]
		if !ok {
			continue
		}
		if ka.seed == -1 || kb.seed == -1 {
			return fmt.Errorf("%s: runs with different seed, run length or operation count inside one file", name)
		}
		if ka != kb {
			return fmt.Errorf("%s: seed/seconds/ops differ: %+v against %+v", name, ka, kb)
		}
	}
	return nil
}

// compareFiles prints, per (metric, workload), whether b improved on,
// matched, or regressed from a, or whether the runs spread too widely
// to tell. It exits 1 if anything regressed or is unresolved.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var files [2]*resultFile
	for i, path := range []string{pathA, pathB} {
		f, err := readResults(path)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		files[i] = f
	}
	if err := sameExperiment(files[0], files[1]); err != nil {
		fmt.Fprintf(stderr, "bench: refusing to compare: %v\n", err)
		return 2
	}
	return compareResults(files[0], files[1], stdout)
}

func compareResults(a, b *resultFile, stdout io.Writer) int {
	fmt.Fprintf(stdout, "baseline %s (%s)\ncandidate %s (%s)\n", a.Env.Commit, a.Env.CPUModel, b.Env.Commit, b.Env.CPUModel)
	fmt.Fprintf(stdout, "%-16s %-18s %5s %14s %14s %8s %8s  %s\n", "workload", "metric", "runs", "baseline", "candidate", "worse", "spread", "verdict")
	bad := 0
	for _, w := range workloads {
		for _, def := range endToEnd {
			va, vb := series(a, w.name, def.Name, false), series(b, w.name, def.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worse, sp := verdict(def, va, vb)
			if v == "regressed" || v == "unresolved" {
				bad++
			}
			fmt.Fprintf(stdout, "%-16s %-18s %2d/%-2d %14.4f %14.4f %+7.1f%% %7.1f%%  %s\n",
				w.name, def.Name, len(va), len(vb), medianF(va), medianF(vb), 100*worse, 100*sp, v)
		}
		// fail_share: any rise rejects.
		fa, fb := failShare(a, w.name), failShare(b, w.name)
		if fb > fa {
			bad++
			fmt.Fprintf(stdout, "%-16s %-18s fail share rose from %g to %g  regressed\n", w.name, "fail_share", fa, fb)
		}
		for _, name := range exactCounts {
			va, vb := series(a, w.name, name, true), series(b, w.name, name, true)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			if slices.Min(va) != slices.Max(va) || slices.Min(vb) != slices.Max(vb) || va[0] != vb[0] {
				bad++
				fmt.Fprintf(stdout, "%-16s %-18s exact count does not repeat: %v against %v  regressed\n", w.name, name, va, vb)
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d (metric, workload) pairs regressed or unresolved\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "nothing regressed, nothing unresolved")
	return 0
}

// failShare is failed / attempted over every pass of a workload.
func failShare(f *resultFile, workload string) float64 {
	var failed, attempted int
	for _, r := range f.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
