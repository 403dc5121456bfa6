package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

// testExperiment runs the listed experiment id in quick mode and
// asserts every check passed.
func testExperiment(t *testing.T, id string) {
	t.Helper()
	for _, e := range experiments {
		if e.id != id {
			continue
		}
		var out bytes.Buffer
		rep := newReport(&out, e.id, e.claim)
		err := e.run(config{seed: 1998, quick: true, ctx: context.Background()}, rep)
		rep.finish(0, err, false)
		if err != nil || !rep.pass {
			t.Fatalf("%s: err %v, failed checks %v\n%s", id, err, rep.fails, out.String())
		}
		return
	}
	t.Fatalf("no experiment %s", id)
}

// Tier-1 runs every experiment of the list in quick mode, one test each.
func TestExperimentE1(t *testing.T)  { testExperiment(t, "E1") }
func TestExperimentE2(t *testing.T)  { testExperiment(t, "E2") }
func TestExperimentE3(t *testing.T)  { testExperiment(t, "E3") }
func TestExperimentE4(t *testing.T)  { testExperiment(t, "E4") }
func TestExperimentE5(t *testing.T)  { testExperiment(t, "E5") }
func TestExperimentE6(t *testing.T)  { testExperiment(t, "E6") }
func TestExperimentE7(t *testing.T)  { testExperiment(t, "E7") }
func TestExperimentE8(t *testing.T)  { testExperiment(t, "E8") }
func TestExperimentE9(t *testing.T)  { testExperiment(t, "E9") }
func TestExperimentE10(t *testing.T) { testExperiment(t, "E10") }
func TestExperimentE11(t *testing.T) { testExperiment(t, "E11") }
func TestExperimentE12(t *testing.T) { testExperiment(t, "E12") }
func TestExperimentE13(t *testing.T) { testExperiment(t, "E13") }

// TestExperimentList pins the list the tests above cover: an
// experiment added to it needs a test of its own.
func TestExperimentList(t *testing.T) {
	if len(experiments) != 13 {
		t.Fatalf("%d experiments, tests cover 13", len(experiments))
	}
	for i, e := range experiments {
		if want := fmt.Sprintf("E%d", i+1); e.id != want {
			t.Errorf("experiment %d is %s, want %s", i, e.id, want)
		}
	}
}

func TestReportFormatting(t *testing.T) {
	var out bytes.Buffer
	rep := newReport(&out, "EX", "demo claim")
	rep.row("col1", "col2")
	rep.row(1, 2.5)
	rep.check("good", true)
	rep.check("bad", false)
	rep.finish(time.Millisecond, nil, false)
	for _, want := range []string{"EX — demo claim", "col1", "ok: good", "FAIL: bad", "EX: FAIL"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunExitCodes pins the command's exit codes: a run cut by its
// deadline is canceled (3), not a refuted claim (1); an unknown
// experiment is a usage error (2).
func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
		out  string
	}{
		{[]string{"-timeout", "1ns", "-experiment", "E10"}, 3, "E10: CANCELED"},
		{[]string{"-experiment", "E99"}, 2, ""},
		{[]string{"-quick", "-experiment", "E5"}, 0, "E5: PASS"},
	} {
		var out bytes.Buffer
		if got := run(tc.args, &out); got != tc.want {
			t.Errorf("run(%q) = %d, want %d\n%s", tc.args, got, tc.want, out.String())
		}
		if !strings.Contains(out.String(), tc.out) {
			t.Errorf("run(%q) output lacks %q:\n%s", tc.args, tc.out, out.String())
		}
	}
	if got := run([]string{"-no-such-flag"}, io.Discard); got != 2 {
		t.Errorf("unknown flag: exit %d, want 2", got)
	}
}
