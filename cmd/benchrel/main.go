// Command benchrel regenerates the experiment tables of EXPERIMENTS.md:
// one experiment per proposition/theorem of the paper (see DESIGN.md
// §3 for the index). Every experiment prints a table of measurements
// and a PASS/FAIL verdict for the paper's claim on this workload; the
// same experiments are the package's Go benchmarks (bench_test.go).
//
// Usage:
//
//	benchrel                  # run everything
//	benchrel -experiment E4   # one experiment
//	benchrel -quick           # smaller sweeps (CI-sized)
//	benchrel -seed 7          # different workload seed
//	benchrel -timeout 1m      # deadline for the whole run (exit 3 when cut)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"qrel/internal/cliutil"
)

// config carries the harness parameters into each experiment.
type config struct {
	seed  int64
	quick bool
	// ctx carries the harness-wide deadline (-timeout) into every engine
	// call; context.Background() when no timeout is set.
	ctx context.Context
}

// experiment is one reproducible experiment.
type experiment struct {
	id    string
	claim string
	run   func(cfg config, out *report) error
}

// experiments is the suite the CLI, the tests and the benchmarks run.
var experiments = []experiment{
	{"E1", "Prop 3.1: quantifier-free reliability is computable in polynomial time", runE1},
	{"E2", "Prop 3.2: conjunctive expected error encodes #MONOTONE-2SAT exactly", runE2},
	{"E3", "Thm 4.2: the #P oracle count recovers the exact probability; padding junk never interferes", runE3},
	{"E4", "Thm 5.2 (Karp–Luby): #DNF has an FPTRAS; naive MC fails on low-density instances", runE4},
	{"E5", "Thm 5.3: the binary-encoding reduction solves Prob-kDNF exactly and blows up polynomially", runE5},
	{"E6", "Thm 5.4 + Cor 5.5: existential query probability has an FPTRAS; reliability approximable", runE6},
	{"E7", "Lemmas 5.7/5.9: AR is polynomial for qfree queries and encodes 4-colourability for existential ones", runE7},
	{"E8", "Thm 5.12: padded Monte Carlo achieves absolute (eps, delta) for poly-time queries", runE8},
	{"E9", "Thm 6.2: metafinite qfree reliability in FP; aggregate reliability exact via enumeration", runE9},
	{"E10", "Ablations: direct weighted KL vs Thm 5.3 route; per-tuple vs direct MC; BDD vs brute force", runE10},
	{"E11", "Datalog (Section 4 extension): network reliability matches closed forms; MC within bound", runE11},
	{"E12", "Safe-plan extension (Dalvi–Suciu): hierarchical conjunctive queries exact in PTIME", runE12},
	{"E13", "Data vs expression complexity: Prop 3.1 polynomial in n, exponential in n(psi)", runE13},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is the command: it prints the reports to stdout and returns the
// exit code — 1 when a claim fails, cliutil.ExitCanceled when the
// -timeout deadline cuts the run, cliutil.ExitUsage on bad arguments.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchrel", flag.ContinueOnError)
	var (
		which   = fs.String("experiment", "all", "experiment id (E1..E13) or 'all'")
		seed    = fs.Int64("seed", 1998, "workload seed")
		quick   = fs.Bool("quick", false, "smaller parameter sweeps")
		timeout = fs.Duration("timeout", 0, "wall-clock limit for the whole run (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return cliutil.ExitUsage
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	cfg := config{seed: *seed, quick: *quick, ctx: ctx}
	failed, ran := 0, 0
	for _, e := range experiments {
		if *which != "all" && !strings.EqualFold(*which, e.id) {
			continue
		}
		ran++
		rep := newReport(stdout, e.id, e.claim)
		start := time.Now()
		err := ctx.Err()
		if err == nil {
			err = e.run(cfg, rep)
		}
		// An error once the deadline has passed is the deadline's doing.
		canceled := err != nil && ctx.Err() != nil
		rep.finish(time.Since(start), err, canceled)
		if canceled {
			fmt.Fprintf(os.Stderr, "benchrel: %s cut by -timeout %v: %v\n", e.id, *timeout, err)
			return cliutil.ExitCanceled
		}
		if !rep.pass {
			failed++
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "benchrel: unknown experiment %q\n", *which)
		return cliutil.ExitUsage
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchrel: %d experiment(s) failed\n", failed)
		return cliutil.ExitFailure
	}
	return cliutil.ExitOK
}

// report accumulates one experiment's table and verdicts.
type report struct {
	id     string
	w      io.Writer
	tw     *tabwriter.Writer
	pass   bool
	checks []string
	fails  []string
	// bench, when set, runs each timed call as a sub-benchmark
	// (bench_test.go).
	bench func(label string, fn func() (int, error)) (time.Duration, error)
}

func newReport(w io.Writer, id, claim string) *report {
	fmt.Fprintf(w, "\n=== %s — %s ===\n", id, claim)
	return &report{
		id:   id,
		w:    w,
		tw:   tabwriter.NewWriter(w, 2, 4, 2, ' ', 0),
		pass: true,
	}
}

// timed runs fn, an engine call a table row measures, and returns the
// wall time of one call; fn returns the samples it drew (0 for exact
// engines). The CLI runs fn once. Under `go test -bench` it is the
// sub-benchmark label and runs b.N times, so fn must leave the row's
// values from its last call and draw the same stream on every call.
func (r *report) timed(label string, fn func() (int, error)) (time.Duration, error) {
	if r.bench != nil {
		return r.bench(label, fn)
	}
	start := time.Now()
	_, err := fn()
	return time.Since(start), err
}

// row writes one tab-separated table row.
func (r *report) row(cells ...any) {
	parts := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			parts[i] = fmt.Sprintf("%.6g", v)
		case time.Duration:
			parts[i] = v.Round(time.Microsecond).String()
		default:
			parts[i] = fmt.Sprint(c)
		}
	}
	fmt.Fprintln(r.tw, strings.Join(parts, "\t"))
}

// check records a named boolean verdict.
func (r *report) check(name string, ok bool) {
	if ok {
		r.checks = append(r.checks, name)
		return
	}
	r.pass = false
	r.fails = append(r.fails, name)
}

func (r *report) finish(elapsed time.Duration, err error, canceled bool) {
	r.tw.Flush()
	if err != nil && !canceled {
		fmt.Fprintf(r.w, "ERROR: %v\n", err)
		r.pass = false
	}
	sort.Strings(r.checks)
	for _, c := range r.checks {
		fmt.Fprintf(r.w, "  ok: %s\n", c)
	}
	for _, c := range r.fails {
		fmt.Fprintf(r.w, "  FAIL: %s\n", c)
	}
	verdict := "PASS"
	if canceled {
		verdict = "CANCELED"
	} else if !r.pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(r.w, "%s: %s (%s)\n", r.id, verdict, elapsed.Round(time.Millisecond))
}
