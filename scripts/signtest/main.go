// Command signtest prints the sign test of an interleaved A/B run of
// the benchmark: for every (metric, workload), how many of the run
// pairs the candidate won, out of the pairs whose values differ.
//
//	go run ./scripts/signtest BENCHMARK.json base.json cand.json
//
// base.json and cand.json are result files written by `bench -out`
// (scripts/ab.sh writes one per side); the i-th untraced run of a
// workload in one file is paired with the i-th in the other. Which
// direction wins is each metric's "better" in BENCHMARK.json; a metric
// it does not list is skipped. Ties are excluded from the count.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
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
	metric, workload string
	won, decided     int // pairs the candidate won; pairs not tied
	pairs            int
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 3 {
		fmt.Fprintln(stderr, "usage: signtest BENCHMARK.json base.json cand.json")
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
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\twon/run\tties")
	for _, r := range signTests(spec, &base, &cand) {
		fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%d\n", r.metric, r.workload, r.won, r.decided, r.pairs-r.decided)
	}
	tw.Flush()
	return 0
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
			r := row{metric: def.Name, workload: w, pairs: min(len(a), len(b))}
			if r.pairs == 0 {
				continue
			}
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
