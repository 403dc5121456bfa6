package main

import (
	"bytes"
	"fmt"
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

// TestRecordFixture writes the fixture pair as a record: the rows are
// the sign tests above with their medians, IQRs and verdicts, and the
// environment comes from the result files.
func TestRecordFixture(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_0.json")
	args := []string{"-record", out, filepath.Join("testdata", "spec.json"), filepath.Join("testdata", "base.json"), filepath.Join("testdata", "cand.json")}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	rec := readRecord(t, out)
	if err := checkRecord(rec); err != nil {
		t.Fatal(err)
	}
	if rec.Base != "base" || rec.Candidate != "cand" || rec.GOMAXPROCS != 2 || rec.Pairs != 3 || len(rec.Rows) != 5 {
		t.Fatalf("record %+v", rec)
	}
	r := rec.Rows[0]
	if r.Metric != "req_p50_ms" || r.Workload != "sampling-mix" || r.Won != 2 || r.Decided != 3 || r.Verdict != "neither" {
		t.Errorf("first row %+v", r)
	}
}

// TestVerdict holds the sign-test rule: nine tenths of the pairs won
// and a median gain beyond the baseline's IQR, in the metric's
// direction.
func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		better                    string
		won, decided, pairs       int
		baseMed, baseIQR, candMed float64
		want                      string
	}{
		{"lower", 9, 10, 10, 10, 1, 8, "improved"},
		{"lower", 8, 10, 10, 10, 1, 8, "neither"},     // too few pairs won
		{"lower", 9, 9, 10, 10, 1, 8, "improved"},     // a tie counts for neither side
		{"lower", 10, 10, 10, 10, 3, 8, "neither"},    // inside the baseline's spread
		{"higher", 10, 10, 10, 10, 1, 12, "improved"}, // direction
		{"higher", 0, 10, 10, 10, 1, 8, "worse"},
		{"lower", 0, 0, 10, 10, 0, 10, "neither"}, // all tied
	} {
		r := row{better: tc.better, won: tc.won, decided: tc.decided, pairs: tc.pairs}
		if got := verdict(r, tc.baseMed, tc.baseIQR, tc.candMed); got != tc.want {
			t.Errorf("%+v: %s, want %s", tc, got, tc.want)
		}
	}
}

// TestBenchRecords parses every BENCH_*.json at the repository root and
// holds each against checkRecord, so that no claimed gain survives in a
// record whose own pairs do not carry it.
func TestBenchRecords(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if err := checkRecord(readRecord(t, p)); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

// TestCheckRecordRefusesWeakClaim: a row marked improved with fewer
// pairs won than the sign test needs fails the check.
func TestCheckRecordRefusesWeakClaim(t *testing.T) {
	if err := checkRecord(readRecord(t, filepath.Join("testdata", "weak_claim.json"))); err == nil {
		t.Error("a claim won on 8 of 10 decided pairs passed")
	}
}

// readRecord is loadRecord that fails the test on an error.
func readRecord(t *testing.T, path string) record {
	t.Helper()
	rec, err := loadRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// checkRecord checks a record's shape and that every row marked
// improved won at least ⌈0.9·decided⌉ of its pairs.
func checkRecord(rec record) error {
	if rec.Base == "" || rec.Candidate == "" || rec.GoVersion == "" || rec.GOMAXPROCS < 1 || rec.NProc < 1 || rec.Pairs < 1 || len(rec.Rows) == 0 {
		return fmt.Errorf("incomplete record: %+v", rec)
	}
	for _, r := range rec.Rows {
		if r.Workload == "" || r.Metric == "" || (r.Better != "lower" && r.Better != "higher") ||
			r.Won > r.Decided || r.Decided > r.Pairs || r.Pairs > rec.Pairs {
			return fmt.Errorf("malformed row %+v", r)
		}
		switch r.Verdict {
		case "improved":
			if r.Won < neededWins(r.Decided) || r.Decided == 0 {
				return fmt.Errorf("%s on %s is marked improved with %d of %d pairs won, the sign test needs %d",
					r.Metric, r.Workload, r.Won, r.Decided, neededWins(r.Decided))
			}
		case "worse", "neither":
		default:
			return fmt.Errorf("%s on %s: unknown verdict %q", r.Metric, r.Workload, r.Verdict)
		}
	}
	return nil
}

// TestSeriesFixture prints one (workload, metric) across three records:
// ordered by the number in the file name, not the order given, commits
// shortened, and a record without the row says so.
func TestSeriesFixture(t *testing.T) {
	dir := filepath.Join("testdata", "series")
	args := []string{"-series", "serve-open/alloc_kb_per_req",
		filepath.Join(dir, "BENCH_10.json"), filepath.Join(dir, "BENCH_2.json"), filepath.Join(dir, "BENCH_9.json")}
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	want := `record         base     candidate         base median (IQR)  cand median (IQR)  won/decided  verdict
BENCH_2.json   3333333  4444444           -                  -                  -            no row
BENCH_9.json   1111111  1111111+worktree  273.9 (0.19)       234.3 (0.18)       10/10        improved
BENCH_10.json  2222222  2222222+worktree  234.5 (0.21)       160.3 (0.3)        10/10        improved
`
	if out.String() != want {
		t.Errorf("got\n%s\nwant\n%s", out.String(), want)
	}
	for _, bad := range [][]string{
		{"-series", "serve-open/alloc_kb_per_req"},
		{"-series", "alloc_kb_per_req", filepath.Join(dir, "BENCH_9.json")},
		{"-series", "serve-open/alloc_kb_per_req", filepath.Join(dir, "missing.json")},
	} {
		if code := run(bad, &out, &errOut); code != 2 {
			t.Errorf("%q: exit %d, want 2", bad, code)
		}
	}
}
