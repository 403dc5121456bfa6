package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qrel/internal/cliutil"
)

const testMFDB = `
universe 3
func salary/1
salary 0 = 100
salary 1 = 200
salary 2 = 300
salary 1 ~ 200:3/4 250:1/4
`

func writeMFDB(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.mfdb")
	if err := os.WriteFile(path, []byte(testMFDB), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	buf := make([]byte, 1<<16)
	n, _ := r.Read(buf)
	return string(buf[:n]), runErr
}

func TestAggregateEngines(t *testing.T) {
	db := writeMFDB(t)
	// Exact: H = 1/4 for SUM (the one uncertain record flips it).
	for _, engine := range []string{"auto", "enum"} {
		out, err := captureStdout(t, func() error {
			return run(db, "sum_x(salary(x))", engine, 0.05, 0.05, 1)
		})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if !strings.Contains(out, "H = 1/4") {
			t.Errorf("%s: wrong H:\n%s", engine, out)
		}
	}
	// Quantifier-free engine on a per-record query.
	out, err := captureStdout(t, func() error {
		return run(db, "salary(x) + 1", "qfree", 0.05, 0.05, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mf-qfree-exact") {
		t.Errorf("qfree engine not used:\n%s", out)
	}
	// Monte Carlo prints sample counts.
	out, err = captureStdout(t, func() error {
		return run(db, "avg_x(salary(x))", "mc", 0.1, 0.1, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "samples") {
		t.Errorf("mc engine output wrong:\n%s", out)
	}
}

func TestAggrelErrors(t *testing.T) {
	db := writeMFDB(t)
	cases := []struct {
		name string
		fn   func() error
	}{
		{"missing args", func() error { return run("", "", "auto", 0.1, 0.1, 1) }},
		{"missing file", func() error { return run("/nonexistent", "1", "auto", 0.1, 0.1, 1) }},
		{"bad query", func() error { return run(db, "sum_(x)", "auto", 0.1, 0.1, 1) }},
		{"bad engine", func() error { return run(db, "1", "bogus", 0.1, 0.1, 1) }},
		{"qfree on aggregate", func() error { return run(db, "sum_x(salary(x))", "qfree", 0.1, 0.1, 1) }},
	}
	for _, c := range cases {
		if _, err := captureStdout(t, c.fn); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// wideMFDB writes a database of 23 binary salary sites: 2^23 worlds,
// twice MaxEnumWorlds.
func wideMFDB(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("universe 23\nfunc salary/1\n")
	for i := 0; i < 23; i++ {
		fmt.Fprintf(&b, "salary %d ~ 100:1/2 200:1/2\n", i)
	}
	path := filepath.Join(t.TempDir(), "wide.mfdb")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestAggrelExitCodes pins aggrel to the shared exit-code contract.
func TestAggrelExitCodes(t *testing.T) {
	db := writeMFDB(t)
	wide := wideMFDB(t)
	cases := []struct {
		name string
		code int
		fn   func() error
	}{
		{"missing args", cliutil.ExitUsage, func() error { return run("", "", "auto", 0.1, 0.1, 1) }},
		{"unknown engine", cliutil.ExitUsage, func() error { return run(db, "1", "bogus", 0.1, 0.1, 1) }},
		{"missing file", cliutil.ExitFailure, func() error { return run("/nonexistent", "1", "auto", 0.1, 0.1, 1) }},
		{"bad query", cliutil.ExitFailure, func() error { return run(db, "sum_(x)", "auto", 0.1, 0.1, 1) }},
		{"worlds over budget", cliutil.ExitBudget, func() error { return run(wide, "sum_x(salary(x))", "enum", 0.1, 0.1, 1) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := captureStdout(t, c.fn)
			if got := cliutil.ExitCode(err); got != c.code {
				t.Errorf("exit code %d (err %v), want %d", got, err, c.code)
			}
		})
	}
}
