// Command bench is qrel's benchmark: five named workloads, five
// end-to-end metrics each, and a traced run that attributes the time to
// layers. See README.md in this directory and BENCHMARK.json at the
// repository root.
//
//	go run ./bench                              every workload, end-to-end metrics
//	go run ./bench -workload serve-open         one workload
//	go run ./bench -trace spans.json            also the traced pass, spans written out
//	go run ./bench -out a.json                  append the results to a result file
//	go run ./bench -compare a.json b.json       judge b against a by each metric's bound
//	go run ./bench -smoke                       every workload at tiny sizes, both passes
//
// It exits non-zero if any answer is wrong, any request fails or is
// refused, or any instance is degenerate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// procs is the GOMAXPROCS every run uses and records: the reference box
// has two cores, and numbers taken at another width are not comparable.
const procs = 2

// defaultDir is the only directory the benchmark writes to unless -dir
// names another; .gitignore names it.
const defaultDir = ".bench_build"

// config is one invocation's settings.
type config struct {
	seed     int64
	seconds  float64
	untraced bool
	traced   bool
	trace    string // where the traced pass writes its spans
	smoke    bool
	setups   int    // how often set-up is repeated at least; setup_s is the median
	maxSetup int    // and at most, while less than a second has been spent on it
	dir      string // scratch directory for store files, checkpoints and the default trace
}

// record is one pass over one workload, as printed on the result line
// and kept in a result file.
type record struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// resultLine is the last line of standard output: exactly these keys.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all five)")
	seed := fs.Int64("seed", 1998, "seed of every generated input")
	seconds := fs.Float64("seconds", 20, "length of each measured phase")
	trace := fs.String("trace", "0", "0: untraced pass only; 1: traced pass only; a path: both passes, spans written there")
	smoke := fs.Bool("smoke", false, "tiny sizes, one set-up, both passes: a self-test, not a measurement")
	dir := fs.String("dir", defaultDir, "scratch directory (store files, checkpoints, the default trace file)")
	out := fs.String("out", "", "append the results to this result file")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	runtime.GOMAXPROCS(procs)

	cfg := config{seed: *seed, seconds: *seconds, untraced: true, setups: 3, maxSetup: 9, dir: *dir}
	switch *trace {
	case "0", "":
	case "1":
		cfg.untraced, cfg.traced = false, true
		cfg.trace = filepath.Join(cfg.dir, "trace.json")
	default:
		cfg.traced, cfg.trace = true, *trace
	}
	if *smoke {
		cfg.smoke, cfg.untraced, cfg.traced, cfg.setups, cfg.maxSetup = true, true, true, 1, 1
		cfg.seconds = 0.05
		if cfg.trace == "" {
			cfg.trace = filepath.Join(cfg.dir, "trace.json")
		}
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}

	fmt.Fprintf(stdout, "qrel bench: seed=%d seconds=%g GOMAXPROCS=%d nproc=%d %s\n",
		cfg.seed, cfg.seconds, procs, runtime.NumCPU(), runtime.Version())
	ok := true
	var records []record
	var traces []traceDump
	for _, w := range selected {
		recs, rec, err := runWorkload(w, cfg, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		for _, r := range recs {
			ok = ok && r.Correct
		}
		records = append(records, recs...)
		if rec != nil {
			traces = append(traces, traceDump{w.name, rec.spans, rec.counts})
		}
	}
	if cfg.traced {
		if err := writeTraces(cfg.trace, traces); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if *out != "" {
		if err := appendResults(*out, records); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	// The result lines come last, one per pass; a single-workload
	// invocation with -trace 0 or 1 ends in exactly one.
	for _, r := range records {
		line, err := json.Marshal(resultLine{r.Correct, r.Attempted, r.Failed, r.Metrics})
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if !ok {
		return 1
	}
	return 0
}

// runWorkload sets the workload up several times (timing each; the
// last instance is measured), runs the passes cfg asks for, and prints
// every metric by name with its unit.
func runWorkload(w workload, cfg config, stdout io.Writer) ([]record, *recorder, error) {
	if err := os.MkdirAll(cfg.dir, 0o777); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(cfg.dir, w.name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	sz := fullSizes
	if cfg.smoke {
		sz = smokeSizes
	}

	// Set-up is repeated cfg.setups times, and on — up to cfg.maxSetup
	// times — until a second has been spent, so a set-up of milliseconds
	// still has a steady median.
	var inst instance
	var setups []time.Duration
	var spent time.Duration
	for i := 0; i < cfg.setups || (i < cfg.maxSetup && spent < time.Second); i++ {
		if inst != nil {
			inst.close()
			runtime.GC()
		}
		sub := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(sub, 0o777); err != nil {
			return nil, nil, err
		}
		t := time.Now()
		inst, err = w.setup(&env{seed: cfg.seed, sz: sz, dir: sub})
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t))
		spent += setups[i]
	}
	defer inst.close()

	dur := time.Duration(cfg.seconds * float64(time.Second))
	rot := inst.rotation()
	rate := rot.rate
	measure := func(d time.Duration, rec *recorder) *loopResult {
		if rate > 0 {
			return openLoop(rot, rate, d, connections, rec)
		}
		return closedLoop(rot, d, rec)
	}
	base := record{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds}
	var records []record
	var rec *recorder

	if cfg.untraced {
		res := measure(dur, nil)
		r := base
		r.Attempted, r.Failed, r.Correct = res.attempted(), res.failed, res.failed == 0
		r.Metrics = fill(endToEnd, endToEndMetrics(res, setups))
		printPass(stdout, w.name, "end-to-end", endToEnd, r, res, rate)
		records = append(records, r)
	}
	if cfg.traced {
		// Half the time for the traced loop (every other rotation
		// records spans, the rest are its untraced control), half for
		// the layer probes.
		rec = newRecorder()
		res := measure(dur/2, rec)
		m := map[string]float64{"bench.trace_overhead_share": res.traceOverheadShare()}
		lerr := inst.layers(rec, res, dur/2, m)
		r := base
		r.Traced = true
		r.Attempted, r.Failed = res.attempted(), res.failed
		if lerr != nil {
			// A probe that fails or answers wrongly is a failed operation.
			r.Attempted++
			r.Failed++
			if res.firstErr == nil {
				res.firstErr = lerr
			}
		}
		r.Correct = r.Failed == 0
		r.Metrics = fill(perLayer, m)
		printPass(stdout, w.name, "per-layer", perLayer, r, res, rate)
		fmt.Fprintf(stdout, "# %s spans (self = span − the part its children cover)\n", w.name)
		printSpanTable(stdout, rec.spans, rec.counts)
		records = append(records, r)
	}
	return records, rec, nil
}

// printPass prints one pass: every metric of defs by name with its
// unit, then how many requests it rests on.
func printPass(w io.Writer, workload, pass string, defs []metricDef, r record, res *loopResult, rate int) {
	loop := "closed loop, 1 caller"
	if rate > 0 {
		loop = fmt.Sprintf("open loop, %d req/s, %d connections, timed from the due time", rate, connections)
	}
	fmt.Fprintf(w, "# %s %s (%s)\n", workload, pass, loop)
	for _, d := range defs {
		fmt.Fprintf(w, "%-16s %-36s %16.6f %s\n", workload, d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	n := res.attempted()
	lat := res.sorted()
	tail := supportedTail(n)
	fmt.Fprintf(w, "%-16s requests=%d failed=%d wall=%.2fs highest supported tail: p%g = %.3f ms\n",
		workload, n, r.Failed, res.wall.Seconds(), tail, ms(percentile(lat, tail)))
	if res.firstErr != nil {
		fmt.Fprintf(w, "%-16s FIRST FAILURE: %v\n", workload, res.firstErr)
	}
}

// environment is what every result file records about where it ran.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

func currentEnvironment() environment {
	return environment{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: procs,
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
}

// gitCommit reads the checked-out commit from .git without starting a
// process; "unknown" outside a git checkout.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	data, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// cpuModel is the first "model name" of /proc/cpuinfo; "unknown" elsewhere.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}
