// Command signtest prints the sign test of an interleaved A/B run of
// the benchmark: for every (metric, workload), how many of the run
// pairs the candidate won, out of the pairs whose values differ.
//
//	go run ./scripts/signtest [-record BENCH_<n>.json] BENCHMARK.json base.json cand.json
//	go run ./scripts/signtest -series <workload>/<metric> BENCH_*.json
//
// base.json and cand.json are result files written by `bench -out`
// (scripts/ab.sh writes one per side); the i-th untraced run of a
// workload in one file is paired with the i-th in the other. Which
// direction wins is each metric's "better" in BENCHMARK.json; a metric
// it does not list is skipped. Ties are excluded from the count.
//
// With -record, the run is also written as a BENCH file (see record):
// where it ran, and per (workload, metric) both medians, both IQRs, the
// pairs won of the pairs decided and the verdict of the sign-test rule
// a claimed gain must meet, so that the claim can be re-checked later
// from the file alone.
//
// With -series, signtest reads BENCH files instead and prints one
// metric's trajectory: one line per file, in the order of the number in
// its name, with both commits, both medians and IQRs, the pairs won of
// the pairs decided and the verdict.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

type metricDef struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

type benchSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type resultFile struct {
	Env struct {
		Commit     string `json:"commit"`
		GoVersion  string `json:"go_version"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		NProc      int    `json:"nproc"`
		CPUModel   string `json:"cpu_model"`
	} `json:"env"`
	Runs []struct {
		Workload string `json:"workload"`
		Traced   bool   `json:"traced"`
		Metrics  map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"runs"`
}

// row is the sign test of one metric on one workload.
type row struct {
	metric, workload, better string
	won, decided             int // pairs the candidate won; pairs not tied
	pairs                    int
	base, cand               []float64 // the paired values, in run order
}

// record is a BENCH_<n>.json file: one A/B run, where it ran, and one
// row per (workload, metric).
type record struct {
	Base       string      `json:"base"`      // the baseline's commit
	Candidate  string      `json:"candidate"` // the candidate's commit
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NProc      int         `json:"nproc"`
	CPUModel   string      `json:"cpu_model"`
	Pairs      int         `json:"pairs"` // the most pairs any row has
	Rows       []recordRow `json:"rows"`
}

// recordRow is one (workload, metric) of a record. The IQRs are Q3 − Q1
// by bench/compare.go's quartile method, in the metric's unit.
type recordRow struct {
	Workload   string  `json:"workload"`
	Metric     string  `json:"metric"`
	Better     string  `json:"better"`
	BaseMedian float64 `json:"base_median"`
	BaseIQR    float64 `json:"base_iqr"`
	CandMedian float64 `json:"cand_median"`
	CandIQR    float64 `json:"cand_iqr"`
	Pairs      int     `json:"pairs"`
	Won        int     `json:"won"`
	Decided    int     `json:"decided"`
	Verdict    string  `json:"verdict"` // see verdict
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const usage = `usage: signtest [-record BENCH_<n>.json] BENCHMARK.json base.json cand.json
       signtest -series <workload>/<metric> BENCH_*.json`

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "-series" {
		return printSeries(args[1:], stdout, stderr)
	}
	out := ""
	if len(args) > 0 && args[0] == "-record" {
		if len(args) < 2 {
			args = nil // usage
		} else {
			out, args = args[1], args[2:]
		}
	}
	if len(args) != 3 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	var spec benchSpec
	var base, cand resultFile
	for i, v := range []any{&spec, &base, &cand} {
		data, err := os.ReadFile(args[i])
		if err == nil {
			err = json.Unmarshal(data, v)
		}
		if err != nil {
			fmt.Fprintf(stderr, "signtest: %s: %v\n", args[i], err)
			return 2
		}
	}
	rows := signTests(spec, &base, &cand)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\twon/run\tties")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%d\n", r.metric, r.workload, r.won, r.decided, r.pairs-r.decided)
	}
	tw.Flush()
	if out == "" {
		return 0
	}
	data, err := json.MarshalIndent(newRecord(&base, &cand, rows), "", " ")
	if err == nil {
		err = os.WriteFile(out, append(data, '\n'), 0o666)
	}
	if err != nil {
		fmt.Fprintf(stderr, "signtest: %v\n", err)
		return 1
	}
	return 0
}

// newRecord is the record of the sign tests rows of base against cand.
func newRecord(base, cand *resultFile, rows []row) record {
	rec := record{
		Base:       base.Env.Commit,
		Candidate:  cand.Env.Commit,
		GoVersion:  cand.Env.GoVersion,
		GOMAXPROCS: cand.Env.GOMAXPROCS,
		NProc:      cand.Env.NProc,
		CPUModel:   cand.Env.CPUModel,
		Rows:       []recordRow{},
	}
	for _, r := range rows {
		rec.Pairs = max(rec.Pairs, r.pairs)
		b1, b2, b3 := quartiles(r.base)
		c1, c2, c3 := quartiles(r.cand)
		rec.Rows = append(rec.Rows, recordRow{
			Workload: r.workload, Metric: r.metric, Better: r.better,
			BaseMedian: b2, BaseIQR: b3 - b1, CandMedian: c2, CandIQR: c3 - c1,
			Pairs: r.pairs, Won: r.won, Decided: r.decided,
			Verdict: verdict(r, b2, b3-b1, c2),
		})
	}
	return rec
}

// neededWins is the sign test's bar for n pairs: nine tenths, rounded up.
func neededWins(n int) int { return (9*n + 9) / 10 }

// verdict is "improved" when the candidate won at least nine tenths of
// the pairs run (ties count for neither side) and its median is better
// than the baseline's by more than the baseline's IQR, "worse" when the
// same holds the other way round, and "neither" otherwise.
func verdict(r row, baseMedian, baseIQR, candMedian float64) string {
	gain := candMedian - baseMedian
	if r.better != "higher" {
		gain = -gain
	}
	switch {
	case r.pairs > 0 && r.won >= neededWins(r.pairs) && gain > baseIQR:
		return "improved"
	case r.pairs > 0 && r.decided-r.won >= neededWins(r.pairs) && -gain > baseIQR:
		return "worse"
	default:
		return "neither"
	}
}

// quartiles returns Q1, Q2, Q3 as bench/compare.go does: Python's
// statistics.quantiles(v, n=4), the exclusive method. One value is its
// own three quartiles; none gives zeros.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// signTests pairs the untraced runs of the two files per workload, in
// file order, and counts the candidate's wins per metric: end-to-end
// metrics first, then the per-layer ones, each in BENCHMARK.json order.
func signTests(spec benchSpec, base, cand *resultFile) []row {
	var workloads []string
	seen := map[string]bool{}
	for _, r := range base.Runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			workloads = append(workloads, r.Workload)
		}
	}
	var rows []row
	for _, def := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		for _, w := range workloads {
			a, b := series(base, w, def.Name), series(cand, w, def.Name)
			r := row{metric: def.Name, workload: w, better: def.Better, pairs: min(len(a), len(b))}
			if r.pairs == 0 {
				continue
			}
			r.base, r.cand = a[:r.pairs], b[:r.pairs]
			for i := 0; i < r.pairs; i++ {
				if a[i] == b[i] {
					continue
				}
				r.decided++
				if (def.Better == "higher") == (b[i] > a[i]) {
					r.won++
				}
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// series is one metric's values over a file's untraced runs of one
// workload, in run order.
func series(f *resultFile, workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// printSeries prints the row of one (workload, metric) from each BENCH
// file named, ordered by the number in the file's name: the
// trajectory of that metric across the measured changes.
func printSeries(args []string, stdout, stderr io.Writer) int {
	if len(args) < 2 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	workload, metric, ok := strings.Cut(args[0], "/")
	if !ok || workload == "" || metric == "" {
		fmt.Fprintf(stderr, "signtest: -series wants <workload>/<metric>, not %q\n", args[0])
		return 2
	}
	paths := slices.Clone(args[1:])
	slices.SortStableFunc(paths, func(a, b string) int { return recordNumber(a) - recordNumber(b) })
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "record\tbase\tcandidate\tbase median (IQR)\tcand median (IQR)\twon/decided\tverdict")
	for _, p := range paths {
		rec, err := loadRecord(p)
		if err != nil {
			fmt.Fprintf(stderr, "signtest: %v\n", err)
			return 2
		}
		name := filepath.Base(p)
		i := slices.IndexFunc(rec.Rows, func(r recordRow) bool { return r.Workload == workload && r.Metric == metric })
		if i < 0 {
			fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t-\tno row\n", name, shortCommit(rec.Base), shortCommit(rec.Candidate))
			continue
		}
		r := rec.Rows[i]
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g (%.2g)\t%.4g (%.2g)\t%d/%d\t%s\n", name, shortCommit(rec.Base), shortCommit(rec.Candidate),
			r.BaseMedian, r.BaseIQR, r.CandMedian, r.CandIQR, r.Won, r.Decided, r.Verdict)
	}
	tw.Flush()
	return 0
}

// recordNumber is n of a file named BENCH_<n>.json, or 0.
func recordNumber(path string) int {
	s := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json")
	n, _ := strconv.Atoi(s)
	return n
}

// shortCommit abbreviates a commit hash to 7 digits, keeping a suffix
// such as "+worktree".
func shortCommit(c string) string {
	hash, suffix, _ := strings.Cut(c, "+")
	if len(hash) > 7 {
		hash = hash[:7]
	}
	if suffix != "" {
		return hash + "+" + suffix
	}
	return hash
}

// loadRecord decodes a BENCH file, refusing fields a record does not
// have.
func loadRecord(path string) (record, error) {
	var rec record
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return rec, fmt.Errorf("%s: %v", path, err)
	}
	return rec, nil
}
