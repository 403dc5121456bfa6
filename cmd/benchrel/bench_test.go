package main

import (
	"context"
	"io"
	"testing"
	"time"
)

// BenchmarkExperiments runs every experiment of the list, one
// sub-benchmark per experiment and one below it per timed engine call:
//
//	go test -run '^$' -bench 'Experiments/E(4|8)' ./cmd/benchrel
//
// The tables are discarded; a failed check fails the benchmark. -short
// selects the quick sweeps.
func BenchmarkExperiments(b *testing.B) {
	cfg := config{seed: 1998, quick: testing.Short(), ctx: context.Background()}
	for _, e := range experiments {
		b.Run(e.id, func(b *testing.B) {
			rep := newReport(io.Discard, e.id, e.claim)
			rep.bench = func(label string, fn func() (int, error)) (time.Duration, error) {
				return benchCall(b, label, fn)
			}
			if err := e.run(cfg, rep); err != nil {
				b.Fatal(err)
			}
			for _, f := range rep.fails {
				b.Errorf("check failed: %s", f)
			}
		})
	}
}

// benchCall runs fn as the sub-benchmark label and returns the mean
// time of one call. A label the -bench pattern filters out still runs
// fn once, so the experiment's rows and checks see its results.
func benchCall(b *testing.B, label string, fn func() (int, error)) (time.Duration, error) {
	var (
		per time.Duration
		err error
		ran bool
	)
	b.Run(label, func(b *testing.B) {
		ran = true
		b.ReportAllocs()
		samples := 0
		for i := 0; i < b.N; i++ {
			var n int
			if n, err = fn(); err != nil {
				b.Fatal(err)
			}
			samples += n
		}
		per = b.Elapsed() / time.Duration(b.N)
		if samples > 0 {
			b.ReportMetric(float64(samples)/b.Elapsed().Seconds(), "samples/sec")
		}
	})
	if !ran {
		start := time.Now()
		_, err = fn()
		per = time.Since(start)
	}
	return per, err
}
