package main

import (
	"bytes"
	"path/filepath"
	"testing"
)

// TestSignTestFixture runs the helper on a fixture pair: runs pair up
// per workload in file order, traced runs and unlisted metrics are
// left out, surplus runs of one side are unpaired, ties are excluded
// from the count, and "lower" and "higher" metrics win in opposite
// directions.
func TestSignTestFixture(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{filepath.Join("testdata", "spec.json"), filepath.Join("testdata", "base.json"), filepath.Join("testdata", "cand.json")}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	want := `metric                     workload      won/run  ties
req_p50_ms                 sampling-mix  2/3      0
req_p50_ms                 store-io      1/1      1
throughput_rps             sampling-mix  2/2      1
throughput_rps             store-io      1/2      0
mc.samples_per_s.compiled  sampling-mix  2/2      0
`
	if out.String() != want {
		t.Errorf("got\n%s\nwant\n%s", out.String(), want)
	}
}

func TestSignTestUsage(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"only-one"}, &out, &errOut); code != 2 {
		t.Errorf("exit %d on a bad command line, want 2", code)
	}
	if code := run([]string{"testdata/spec.json", "testdata/missing.json", "testdata/cand.json"}, &out, &errOut); code != 2 {
		t.Errorf("exit %d on a missing file, want 2", code)
	}
}
