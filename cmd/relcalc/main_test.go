package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qrel"
	"qrel/internal/cliutil"
	"qrel/internal/faultinject"
)

const testDB = `
universe 4
rel E/2
rel S/1
E 0 1
E 1 2 err 1/10
S 0 err 1/4
S 3 absent err 1/2
`

func writeDB(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.udb")
	if err := os.WriteFile(path, []byte(testDB), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
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

func TestRunExactEngines(t *testing.T) {
	db := writeDB(t)
	for _, engine := range []string{"auto", "qfree", "world-enum"} {
		query := "S(x) & !E(x,x)"
		if engine == "world-enum" {
			query = "exists x . S(x)"
		}
		out, err := captureStdout(t, func() error {
			return run(db, "", query, engine, "auto", 0.05, 0.05, 1, 0, 16, qrel.Budget{}, ckptFlags{}, false, false, false)
		})
		if err != nil {
			t.Fatalf("engine %s: %v", engine, err)
		}
		if !strings.Contains(out, "R = ") {
			t.Errorf("engine %s: no exact R in output:\n%s", engine, out)
		}
	}
}

func TestRunRandomizedEngine(t *testing.T) {
	db := writeDB(t)
	out, err := captureStdout(t, func() error {
		return run(db, "", "forall x . exists y . E(x,y)", "monte-carlo-direct", "auto", 0.2, 0.2, 1, 0, 16, qrel.Budget{}, ckptFlags{}, false, false, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "samples") {
		t.Errorf("no sample count in output:\n%s", out)
	}
}

func TestRunPerTupleAndAbsolute(t *testing.T) {
	db := writeDB(t)
	out, err := captureStdout(t, func() error {
		return run(db, "", "exists y . E(x,y)", "auto", "auto", 0.05, 0.05, 1, 0, 16, qrel.Budget{}, ckptFlags{}, true, false, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "per-tuple expected error") {
		t.Errorf("per-tuple report missing:\n%s", out)
	}
	out, err = captureStdout(t, func() error {
		return run(db, "", "exists x . S(x)", "auto", "auto", 0.05, 0.05, 1, 0, 16, qrel.Budget{}, ckptFlags{}, false, true, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "absolutely reliable") {
		t.Errorf("absolute verdict missing:\n%s", out)
	}
}

// TestEngineFlagNamesEveryEngine checks that -engine accepts every
// engine qrel.Engines names and that its help lists each one.
func TestEngineFlagNamesEveryEngine(t *testing.T) {
	db := writeDB(t)
	help := strings.Split(strings.TrimPrefix(engineUsage(), "engine: "), "|")
	listed := map[string]bool{}
	for _, name := range help {
		listed[name] = true
	}
	if !listed[string(qrel.EngineAuto)] {
		t.Errorf("help %q omits %q", engineUsage(), qrel.EngineAuto)
	}
	for _, e := range qrel.Engines() {
		if !listed[string(e)] {
			t.Errorf("help %q omits %q", engineUsage(), e)
		}
		_, err := captureStdout(t, func() error {
			return run(db, "", "exists x . S(x)", string(e), "auto", 0.2, 0.2, 1, 0, 16, qrel.Budget{}, ckptFlags{}, false, false, false)
		})
		if err != nil && cliutil.ExitCode(err) == cliutil.ExitUsage {
			t.Errorf("-engine %s refused as a usage error: %v", e, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	db := writeDB(t)
	cases := []struct {
		name string
		fn   func() error
	}{
		{"missing args", func() error {
			return run("", "", "", "auto", "auto", 0.05, 0.05, 1, 0, 16, qrel.Budget{}, ckptFlags{}, false, false, false)
		}},
		{"missing file", func() error {
			return run("/nonexistent", "", "S(x)", "auto", "auto", 0.05, 0.05, 1, 0, 16, qrel.Budget{}, ckptFlags{}, false, false, false)
		}},
		{"bad query", func() error {
			return run(db, "", "S(", "auto", "auto", 0.05, 0.05, 1, 0, 16, qrel.Budget{}, ckptFlags{}, false, false, false)
		}},
		{"bad engine", func() error {
			return run(db, "", "S(x)", "bogus", "auto", 0.05, 0.05, 1, 0, 16, qrel.Budget{}, ckptFlags{}, false, false, false)
		}},
	}
	for _, c := range cases {
		if _, err := captureStdout(t, c.fn); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestExitCodes pins the documented exit-code contract: each failure
// class of the runtime taxonomy maps to its own code, so scripts can
// branch on $? without parsing stderr.
func TestExitCodes(t *testing.T) {
	defer faultinject.Reset()
	db := writeDB(t)
	secondOrder := "existsrel C/1 . exists x . C(x)"
	cases := []struct {
		name string
		code int
		arm  func()
		fn   func() error
	}{
		{"missing args", cliutil.ExitUsage, nil, func() error {
			return run("", "", "", "auto", "auto", 0.05, 0.05, 1, 0, 16, qrel.Budget{}, ckptFlags{}, false, false, false)
		}},
		{"unknown engine", cliutil.ExitUsage, nil, func() error {
			return run(db, "", "S(x)", "warp-drive", "auto", 0.05, 0.05, 1, 0, 16, qrel.Budget{}, ckptFlags{}, false, false, false)
		}},
		{"missing file", cliutil.ExitFailure, nil, func() error {
			return run("/nonexistent", "", "S(x)", "auto", "auto", 0.05, 0.05, 1, 0, 16, qrel.Budget{}, ckptFlags{}, false, false, false)
		}},
		{"timeout", cliutil.ExitCanceled, nil, func() error {
			return run(db, "", "exists x . S(x)", "world-enum", "auto", 0.05, 0.05, 1, 0, 16,
				qrel.Budget{Timeout: time.Nanosecond}, ckptFlags{}, false, false, false)
		}},
		{"world budget", cliutil.ExitBudget, nil, func() error {
			return run(db, "", "exists x y . E(x,y)", "world-enum", "auto", 0.05, 0.05, 1, 0, 16,
				qrel.Budget{MaxWorlds: 2}, ckptFlags{}, false, false, false)
		}},
		{"infeasible", cliutil.ExitInfeasible, nil, func() error {
			return run(db, "", secondOrder, "auto", "auto", 0.05, 0.05, 1, 0, 16,
				qrel.Budget{MaxWorlds: 2}, ckptFlags{}, false, false, false)
		}},
		{"engine panic", cliutil.ExitEngine, func() {
			faultinject.Enable(faultinject.SiteQFree, faultinject.Fault{Panic: "injected crash"})
		}, func() error {
			return run(db, "", "S(x)", "qfree", "auto", 0.05, 0.05, 1, 0, 16, qrel.Budget{}, ckptFlags{}, false, false, false)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			faultinject.Reset()
			if c.arm != nil {
				c.arm()
			}
			_, err := captureStdout(t, c.fn)
			if got := cliutil.ExitCode(err); got != c.code {
				t.Errorf("exit code %d (err %v), want %d", got, err, c.code)
			}
		})
	}
}

// TestCorruptInputs feeds deliberately broken database files through
// the full run path and demands a clean error — never a panic, which
// cliutil.Recover would surface as an "internal error" exit-1 failure
// rather than a stack trace.
func TestCorruptInputs(t *testing.T) {
	cases := []struct {
		name string
		db   string
	}{
		{"empty file", ""},
		{"binary junk", "\x00\x01\x02\xff\xfe PNG \x89"},
		{"bad universe", "universe banana\nrel S/1\n"},
		{"negative universe", "universe -3\nrel S/1\n"},
		{"bad arity", "universe 2\nrel S/x\n"},
		{"tuple out of range", "universe 2\nrel S/1\nS 7\n"},
		{"bad rational", "universe 2\nrel S/1\nS 0 err one/half\n"},
		{"prob out of range", "universe 2\nrel S/1\nS 0 err 3/2\n"},
		{"truncated line", "universe 2\nrel E/2\nE 0\n"},
		{"unknown relation", "universe 2\nrel S/1\nT 0\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "corrupt.udb")
			if err := os.WriteFile(path, []byte(c.db), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := captureStdout(t, func() error {
				return run(path, "", "exists x . S(x)", "auto", "auto", 0.05, 0.05, 1, 0, 16, qrel.Budget{}, ckptFlags{}, false, false, false)
			})
			if err == nil {
				t.Fatal("corrupt database accepted")
			}
			if strings.Contains(err.Error(), "\n") {
				t.Errorf("multi-line error for corrupt input: %q", err)
			}
		})
	}
}

// TestRunCheckpointResume interrupts a checkpointed run with a sample
// budget, resumes it without the budget, and demands the exact output
// line an uninterrupted run prints — the CLI-level face of the
// bit-identical resume guarantee.
func TestRunCheckpointResume(t *testing.T) {
	db := writeDB(t)
	q := "forall x . exists y . E(x,y)"
	estimateLine := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "H ") {
				return line
			}
		}
		t.Fatalf("no estimate line in output:\n%s", out)
		return ""
	}

	ref, err := captureStdout(t, func() error {
		return run(db, "", q, "monte-carlo-direct", "auto", 0.05, 0.1, 3, 0, 16, qrel.Budget{}, ckptFlags{}, false, false, false)
	})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	interrupted, err := captureStdout(t, func() error {
		return run(db, "", q, "monte-carlo-direct", "auto", 0.05, 0.1, 3, 0, 16,
			qrel.Budget{MaxSamples: 500}, ckptFlags{dir: dir, every: 100}, false, false, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(interrupted, "DEGRADED") {
		t.Fatalf("budgeted run was not cut short:\n%s", interrupted)
	}

	resumed, err := captureStdout(t, func() error {
		return run(db, "", q, "monte-carlo-direct", "auto", 0.05, 0.1, 3, 0, 16,
			qrel.Budget{}, ckptFlags{dir: dir, resume: true}, false, false, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resumed, "resumed:") {
		t.Fatalf("resumed run did not report resuming:\n%s", resumed)
	}
	if got, want := estimateLine(resumed), estimateLine(ref); got != want {
		t.Errorf("resumed estimate %q != uninterrupted %q", got, want)
	}
	if !strings.Contains(resumed, "seed:     3") {
		t.Errorf("resumed run does not echo the seed:\n%s", resumed)
	}
}

// TestRunEvalModes pins the -eval flag: compiled and interpreted print
// the same estimate line for a fixed seed, each run echoes its mode,
// and a bogus mode is a usage error.
func TestRunEvalModes(t *testing.T) {
	db := writeDB(t)
	q := "forall x . exists y . E(x,y)"
	outputs := map[string]string{}
	for _, mode := range []string{"compiled", "interpreted"} {
		out, err := captureStdout(t, func() error {
			return run(db, "", q, "monte-carlo-direct", mode, 0.1, 0.1, 3, 0, 16, qrel.Budget{}, ckptFlags{}, false, false, false)
		})
		if err != nil {
			t.Fatalf("-eval %s: %v", mode, err)
		}
		if !strings.Contains(out, "eval:     "+mode) {
			t.Errorf("-eval %s output does not echo the mode:\n%s", mode, out)
		}
		outputs[mode] = out
	}
	line := func(out string) string {
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "H ") {
				return l
			}
		}
		t.Fatalf("no estimate line in output:\n%s", out)
		return ""
	}
	if c, i := line(outputs["compiled"]), line(outputs["interpreted"]); c != i {
		t.Errorf("compiled estimate %q != interpreted %q", c, i)
	}
	_, err := captureStdout(t, func() error {
		return run(db, "", q, "monte-carlo-direct", "bogus", 0.1, 0.1, 3, 0, 16, qrel.Budget{}, ckptFlags{}, false, false, false)
	})
	if cliutil.ExitCode(err) != cliutil.ExitUsage {
		t.Fatalf("-eval bogus: got %v, want usage error", err)
	}
}

// TestRunResumeRequiresCheckpoint pins the flag contract.
func TestRunResumeRequiresCheckpoint(t *testing.T) {
	db := writeDB(t)
	_, err := captureStdout(t, func() error {
		return run(db, "", "S(x)", "auto", "auto", 0.05, 0.05, 1, 0, 16,
			qrel.Budget{}, ckptFlags{resume: true}, false, false, false)
	})
	if cliutil.ExitCode(err) != cliutil.ExitUsage {
		t.Fatalf("-resume without -checkpoint: got %v, want usage error", err)
	}
}

func TestRunSensitivity(t *testing.T) {
	db := writeDB(t)
	out, err := captureStdout(t, func() error {
		return run(db, "", "exists x . S(x)", "auto", "auto", 0.05, 0.05, 1, 0, 16, qrel.Budget{}, ckptFlags{}, false, false, true)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ranked by risk contribution") {
		t.Errorf("sensitivity report missing:\n%s", out)
	}
}

// TestStoreInputMatchesTextInput runs the same exact query from the
// text file and from a paged store built from it: the output —
// including the exact rationals — must be identical.
func TestStoreInputMatchesTextInput(t *testing.T) {
	dbPath := writeDB(t)
	f, err := os.Open(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	db, err := qrel.ParseDB(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	storePath := filepath.Join(t.TempDir(), "db.qstore")
	if err := qrel.BuildStore(storePath, db, qrel.StoreOptions{PageSize: 256}, 0); err != nil {
		t.Fatal(err)
	}
	query := "exists x . S(x)"
	textOut, err := captureStdout(t, func() error {
		return run(dbPath, "", query, "world-enum", "auto", 0.05, 0.05, 1, 0, 16, qrel.Budget{}, ckptFlags{}, false, false, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	storeOut, err := captureStdout(t, func() error {
		return run("", storePath, query, "world-enum", "auto", 0.05, 0.05, 1, 0, 16, qrel.Budget{}, ckptFlags{}, false, false, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if textOut != storeOut {
		t.Errorf("store-backed run differs from text-backed run:\n%s\nvs\n%s", storeOut, textOut)
	}
	if !strings.Contains(storeOut, "R = ") {
		t.Errorf("no exact result in output:\n%s", storeOut)
	}
}

func TestStoreAndDBAreExclusive(t *testing.T) {
	dbPath := writeDB(t)
	err := run(dbPath, "somewhere.qstore", "S(x)", "auto", "auto", 0.05, 0.05, 1, 0, 16, qrel.Budget{}, ckptFlags{}, false, false, false)
	if err == nil || !cliutil.IsUsage(err) {
		t.Errorf("-db with -store: got %v, want usage error", err)
	}
}

func TestStoreCorruptionDegradesTyped(t *testing.T) {
	dbPath := writeDB(t)
	f, _ := os.Open(dbPath)
	db, err := qrel.ParseDB(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	storePath := filepath.Join(t.TempDir(), "db.qstore")
	if err := qrel.BuildStore(storePath, db, qrel.StoreOptions{PageSize: 256}, 0); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	for off := 256; off < len(raw); off += 256 {
		raw[off+64] ^= 0x01 // damage every non-bootstrap page
	}
	if err := os.WriteFile(storePath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run("", storePath, "exists x . S(x)", "world-enum", "auto", 0.05, 0.05, 1, 0, 16, qrel.Budget{}, ckptFlags{}, false, false, false)
	if !errors.Is(err, qrel.ErrCorruptPage) {
		t.Errorf("corrupt store: got %v, want ErrCorruptPage", err)
	}
}
