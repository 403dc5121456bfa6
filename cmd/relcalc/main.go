// Command relcalc computes the reliability of a query on an unreliable
// database given in the qrel text format.
//
// Usage:
//
//	relcalc -db census.udb -query 'exists x . Employed(x)' [flags]
//	relcalc -store g.qstore -query 'exists x y . E(x,y)'
//
// Flags select the engine (default: automatic dispatch on the query
// class), the accuracy parameters of randomized engines, resource
// budgets (-timeout, -budget-samples, -budget-bdd, -budget-worlds), and
// the output detail. With -per-tuple the exact per-answer-tuple
// expected errors are printed; with -absolute the absolute-reliability
// decision (Definition 5.6) is reported.
//
// Long Monte Carlo runs survive crashes: -checkpoint DIR makes the
// engine snapshot its estimator state (sample counts plus PRNG stream
// position) crash-safely every -checkpoint-every samples, and -resume
// continues from the newest intact snapshot. Because the snapshot pins
// the PRNG stream, a resumed run with the same -seed finishes
// bit-identical to one that was never interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"qrel"
	"qrel/internal/cliutil"
)

func main() {
	var (
		dbPath    = flag.String("db", "", "path to the unreliable database (qrel text format); '-' for stdin")
		storePath = flag.String("store", "", "path to a paged store file (mkdb -store); alternative to -db")
		query     = flag.String("query", "", "query in qrel syntax, e.g. 'exists x y . E(x,y) & S(x)'")
		engine    = flag.String("engine", "auto", engineUsage())
		eps       = flag.Float64("eps", 0.05, "accuracy parameter of randomized engines")
		delta     = flag.Float64("delta", 0.05, "confidence parameter of randomized engines")
		seed      = flag.Int64("seed", 1, "random seed for randomized engines")
		workers   = flag.Int("workers", 0, "goroutines driving the fixed lane split of a sampling run (0 = one goroutine; every value yields the same bit-reproducible estimate)")
		eval      = flag.String("eval", "auto", "sampling evaluator: auto|compiled|interpreted (bit-identical; compiled is faster)")
		maxEnum   = flag.Int("max-enum", 16, "uncertain-atom budget for exact world enumeration")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget for the computation (0 = none)")
		maxSamp   = flag.Int("budget-samples", 0, "Monte Carlo sample budget (0 = none); partial runs return a degraded result")
		maxBDD    = flag.Int("budget-bdd", 0, "BDD node budget for the exact lineage engine (0 = engine default)")
		maxWorlds = flag.Uint64("budget-worlds", 0, "possible-world budget for exact enumeration (0 = none)")
		perTuple  = flag.Bool("per-tuple", false, "print exact per-tuple expected errors (world enumeration)")
		absolute  = flag.Bool("absolute", false, "decide absolute reliability (R = 1) instead of computing R")
		sens      = flag.Bool("sensitivity", false, "rank uncertain atoms by how strongly they drive the query's risk")
		ckptDir   = flag.String("checkpoint", "", "directory for crash-safe estimator snapshots (Monte Carlo engines)")
		ckptEvery = flag.Int("checkpoint-every", 0, "snapshot every n samples of the run, over all its lanes (0 = engine default)")
		resume    = flag.Bool("resume", false, "resume from the newest intact snapshot in -checkpoint")
	)
	flag.Parse()
	budget := qrel.Budget{Timeout: *timeout, MaxSamples: *maxSamp, MaxBDDNodes: *maxBDD, MaxWorlds: *maxWorlds}
	ckpt := ckptFlags{dir: *ckptDir, every: *ckptEvery, resume: *resume}
	if err := run(*dbPath, *storePath, *query, *engine, *eval, *eps, *delta, *seed, *workers, *maxEnum, budget, ckpt, *perTuple, *absolute, *sens); err != nil {
		fmt.Fprintln(os.Stderr, "relcalc:", err)
		// The typed runtime taxonomy maps onto distinct exit codes
		// (usage 2, canceled 3, budget 4, infeasible 5, engine 6) so
		// scripts can branch on the failure mode.
		os.Exit(cliutil.ExitCode(err))
	}
}

// engineUsage is the -engine help: auto and every engine qrel.Engines
// names.
func engineUsage() string {
	names := []string{string(qrel.EngineAuto)}
	for _, e := range qrel.Engines() {
		names = append(names, string(e))
	}
	return "engine: " + strings.Join(names, "|")
}

// ckptFlags carries the checkpoint/resume command-line options.
type ckptFlags struct {
	dir    string
	every  int
	resume bool
}

func run(dbPath, storePath, query, engine, eval string, eps, delta float64, seed int64, workers, maxEnum int, budget qrel.Budget, ckpt ckptFlags, perTuple, absolute, sensitivity bool) (err error) {
	defer cliutil.Recover(&err)
	if (dbPath == "") == (storePath == "") {
		return cliutil.UsageErrorf("exactly one of -db and -store is required")
	}
	if query == "" {
		return cliutil.UsageErrorf("-query is required")
	}
	if workers < 0 {
		return cliutil.UsageErrorf("-workers must be >= 0, got %d", workers)
	}
	if !qrel.KnownEngine(qrel.Engine(engine)) {
		return cliutil.UsageErrorf("unknown engine %q", engine)
	}
	if !qrel.KnownEvalMode(eval) {
		return cliutil.UsageErrorf("unknown eval mode %q", eval)
	}
	if ckpt.resume && ckpt.dir == "" {
		return cliutil.UsageErrorf("-resume requires -checkpoint")
	}
	var db *qrel.DB
	if storePath != "" {
		// Opening the store recovers its journal; a database loaded here
		// is bit-identical engine input to the text path.
		s, err := qrel.OpenStore(storePath, qrel.StoreOptions{})
		if err != nil {
			return err
		}
		defer s.Close()
		db, err = s.LoadDB()
		if err != nil {
			return err
		}
	} else {
		in := os.Stdin
		if dbPath != "-" {
			f, err := os.Open(dbPath)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		db, err = qrel.ParseDB(in)
		if err != nil {
			return err
		}
	}
	q, err := qrel.ParseQuery(query, db.A.Voc)
	if err != nil {
		return err
	}
	opts := qrel.Options{Eps: eps, Delta: delta, Seed: seed, Eval: eval, Workers: workers, MaxEnumAtoms: maxEnum, Budget: budget}
	if ckpt.dir != "" {
		store, err := qrel.OpenCheckpointStore(ckpt.dir, qrel.CheckpointOptions{})
		if err != nil {
			return err
		}
		opts.Checkpoint = &qrel.CheckpointConfig{Store: store, Every: ckpt.every, Resume: ckpt.resume}
	}
	fmt.Printf("universe: %d elements, %d facts, %d uncertain atoms\n",
		db.A.N, db.A.FactCount(), db.NumUncertain())
	fmt.Printf("query:    %s  [%v]\n", q, qrel.Classify(q))

	ctx := context.Background()

	if absolute {
		res, err := qrel.AbsoluteReliability(ctx, db, q, opts)
		if err != nil {
			return err
		}
		fmt.Printf("absolutely reliable: %v  (engine %s)\n", res.Reliable, res.Engine)
		if res.Witness != nil {
			fmt.Printf("witness world: %v\n", res.Witness)
		}
		return nil
	}

	res, err := qrel.ReliabilityWith(ctx, qrel.Engine(engine), db, q, opts)
	if err != nil {
		return err
	}
	fmt.Printf("engine:   %s  (%v)\n", res.Engine, res.Guarantee)
	if res.EvalMode != "" {
		fmt.Printf("eval:     %s\n", res.EvalMode)
	}
	for _, step := range res.FallbackTrail {
		fmt.Printf("fallback: %s\n", step)
	}
	if res.Guarantee != qrel.Exact {
		fmt.Printf("seed:     %d\n", res.Seed)
	}
	if res.Resumed {
		fmt.Printf("resumed:  continued from checkpoint in %s\n", ckpt.dir)
	}
	if res.Degraded {
		fmt.Printf("DEGRADED: budget/deadline cut the run short; eps widened to %.3g\n", res.Eps)
	}
	if res.Guarantee == qrel.Exact {
		fmt.Printf("H = %s  (= %.6g)\n", res.H.RatString(), res.HFloat)
		fmt.Printf("R = %s  (= %.6g)\n", res.R.RatString(), res.RFloat)
	} else {
		fmt.Printf("H ≈ %.6g   R ≈ %.6g   (eps %.3g, delta %.3g, %d samples)\n",
			res.HFloat, res.RFloat, res.Eps, res.Delta, res.Samples)
	}

	if sensitivity {
		ranked, err := qrel.RankSensitivities(ctx, db, q, opts)
		if err != nil {
			return err
		}
		fmt.Println("uncertain atoms ranked by risk contribution (spread = |H|true − H|false|):")
		for _, s := range ranked {
			fmt.Printf("  %-14v nu=%-8s H|true=%-10s H|false=%-10s spread=%s\n",
				s.Atom, s.Nu.RatString(), s.HTrue.RatString(), s.HFalse.RatString(), s.Spread.RatString())
		}
	}

	if perTuple {
		per, err := qrel.ExpectedErrorPerTuple(ctx, db, q, opts)
		if err != nil {
			return err
		}
		fmt.Println("per-tuple expected error:")
		for _, te := range per {
			mark := " "
			if te.Observed {
				mark = "*"
			}
			fmt.Printf("  %s %v  H = %s\n", mark, te.Tuple, te.H.RatString())
		}
		fmt.Println("  (* = tuple in the observed answer)")
	}
	return nil
}
