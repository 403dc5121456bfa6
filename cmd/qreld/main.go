// Command qreld serves qrel reliability computations over HTTP/JSON,
// robustly: a bounded worker pool with a bounded admission queue sheds
// overload with 503 + Retry-After, per-request deadlines map onto the
// runtime's resource budgets, per-engine circuit breakers skip dispatch
// rungs that keep crashing, and SIGTERM drains gracefully — in-flight
// requests finish (or are canceled at the drain deadline) before the
// process exits 0.
//
// Usage:
//
//	qreld -addr :8080 -preload census=census.udb -preload g=g.udb
//	curl -s localhost:8080/v1/reliability -d '{"db":"census","query":"exists x . Employed(x)"}'
//	qreld -selftest
//
// With -checkpoint-dir the service also runs durable jobs: POST
// /v1/jobs starts a computation that checkpoints its estimator state
// crash-safely and survives process death — a restart resumes every
// interrupted job and finishes it bit-identical to an uninterrupted
// run. A drain, too, leaves in-flight jobs resumable instead of
// discarding their work.
//
// Endpoints: POST /v1/reliability, POST /v1/jobs, GET /v1/jobs/{id},
// GET /healthz, /readyz, /statz.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"qrel"
	"qrel/internal/cliutil"
	"qrel/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		debugAddr    = flag.String("debug-addr", "", "listen address for net/http/pprof profiling endpoints (empty = disabled; never exposed on the serving mux)")
		workers      = flag.Int("workers", 4, "pool workers (max concurrent computations)")
		queue        = flag.Int("queue", 64, "admission queue depth; overflow is shed with 503")
		defTimeout   = flag.Duration("default-timeout", 10*time.Second, "per-request budget when the request carries none")
		maxTimeout   = flag.Duration("max-timeout", 60*time.Second, "cap on the per-request budget")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "SIGTERM drain deadline; in-flight work is canceled after it")
		retryAfter   = flag.Duration("retry-after", time.Second, "backoff hint attached to 503 responses")
		brkThreshold = flag.Int("breaker-threshold", 3, "consecutive engine crashes that trip a rung's circuit breaker")
		brkCooldown  = flag.Duration("breaker-cooldown", 5*time.Second, "open time before a tripped breaker half-open probes")
		ckptDir      = flag.String("checkpoint-dir", "", "enable durable jobs (POST /v1/jobs): per-job crash-safe checkpoints live here, and jobs interrupted by a crash or drain are resumed on startup")
		ckptEvery    = flag.Int("checkpoint-every", 0, "snapshot a job's estimator state every n samples of the run, over all its lanes (0 = engine default)")
		storeDir     = flag.String("store-dir", "", "root directory for paged store files requests may name with \"store\" (empty = disabled)")
		corrupt      = flag.Bool("chaos-compute-corrupt", false, "CHAOS ONLY: silently perturb one lane aggregate of every lane-range result, making this a Byzantine replica a coordinator audit must catch")
		selftest     = flag.Bool("selftest", false, "start an in-process server, exercise shed/breaker/drain/job-resume through the retrying client, and exit")
		preloads     []string
	)
	flag.Func("preload", "register a database as name=path (repeatable)", func(v string) error {
		preloads = append(preloads, v)
		return nil
	})
	flag.Parse()

	cfg := server.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		DefaultTimeout:  *defTimeout,
		MaxTimeout:      *maxTimeout,
		RetryAfter:      *retryAfter,
		Breaker:         server.BreakerConfig{Threshold: *brkThreshold, Cooldown: *brkCooldown},
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		StoreDir:        *storeDir,
		ComputeCorrupt:  *corrupt,
	}
	if *corrupt {
		log.Printf("qreld: -chaos-compute-corrupt is armed; this replica LIES about lane aggregates")
	}
	if *selftest {
		if err := runSelftest(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "qreld: selftest:", err)
			os.Exit(cliutil.ExitCode(err))
		}
		fmt.Println("qreld: selftest ok")
		return
	}
	if err := serve(*addr, *debugAddr, cfg, preloads, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "qreld:", err)
		os.Exit(cliutil.ExitCode(err))
	}
}

// serve runs the service until SIGTERM/SIGINT, then drains and returns
// nil so the process exits 0.
func serve(addr, debugAddr string, cfg server.Config, preloads []string, drainTimeout time.Duration) error {
	s := server.New(cfg)
	for _, spec := range preloads {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			return cliutil.UsageErrorf("-preload %q: want name=path", spec)
		}
		db, err := loadDB(path)
		if err != nil {
			return fmt.Errorf("preloading %q: %w", spec, err)
		}
		s.Register(name, db)
		log.Printf("registered database %q from %s (%d uncertain atoms)", name, path, db.NumUncertain())
	}
	// Resume jobs interrupted by the previous process — after the
	// databases they reference are registered.
	if cfg.CheckpointDir != "" {
		n, err := s.RecoverJobs()
		if err != nil {
			return fmt.Errorf("recovering jobs from %s: %w", cfg.CheckpointDir, err)
		}
		if n > 0 {
			log.Printf("resumed %d interrupted job(s) from %s", n, cfg.CheckpointDir)
		}
	}

	// Listen explicitly (rather than ListenAndServe) so the resolved
	// address — in particular the port the kernel picked for ":0" — is
	// logged before serving starts; scripts launch qreld on ephemeral
	// ports and parse this line to learn where it landed.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("qreld listening on %s (%d workers, queue %d)", ln.Addr(), cfg.Workers, cfg.QueueDepth)
		if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	// Profiling runs on its own listener and mux, never the serving one:
	// -debug-addr should bind a loopback or otherwise private address.
	var debugSrv *http.Server
	if debugAddr != "" {
		debugSrv = &http.Server{Addr: debugAddr, Handler: debugMux()}
		go func() {
			log.Printf("qreld pprof listening on %s", debugAddr)
			if err := debugSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		return err
	case got := <-sig:
		log.Printf("%v: draining (deadline %v)", got, drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		// Deadline hit: in-flight requests were canceled, not stranded.
		// That is the contract — log it and still exit cleanly.
		log.Printf("drain: %v", err)
	}
	shutdownCtx, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	_ = httpSrv.Shutdown(shutdownCtx)
	if debugSrv != nil {
		_ = debugSrv.Shutdown(shutdownCtx)
	}
	log.Printf("qreld drained; exiting")
	return nil
}

// debugMux builds a fresh mux carrying only the net/http/pprof
// endpoints. Registering explicitly (instead of importing the package
// for its DefaultServeMux side effect) guarantees the profiling
// handlers can never leak onto the serving mux.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// loadDB reads an unreliable database in the qrel text format.
func loadDB(path string) (*qrel.DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return qrel.ParseDB(f)
}

func listenLocal() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}
