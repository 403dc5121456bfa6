package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"qrel/internal/checkpoint"
	"qrel/internal/logic"
)

func openStore(t *testing.T, dir string, m *checkpoint.Metrics) *checkpoint.Store {
	t.Helper()
	s, err := checkpoint.Open(dir, checkpoint.Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// snapshotFiles returns the committed snapshot paths in dir, oldest
// first (the zero-padded names sort lexicographically).
func snapshotFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".qckpt") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out
}

// TestMonteCarloDirectResumeBitIdentical is the heart of the
// checkpoint contract: a run interrupted by a sample budget, then
// resumed from its snapshot without the budget, must produce the
// bit-identical estimate of an uninterrupted run with the same seed.
func TestMonteCarloDirectResumeBitIdentical(t *testing.T) {
	d := randUDB(rand.New(rand.NewSource(42)), 3, 6)
	f := logic.MustParse("E(x,y) & S(x)", nil)
	base := Options{Eps: 0.05, Delta: 0.05, Seed: 7}

	full, err := MonteCarloDirect(bg, d, f, base)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	interrupted := base
	interrupted.Budget = Budget{MaxSamples: 300}
	interrupted.Checkpoint = &CheckpointConfig{Store: openStore(t, dir, nil), Every: 100}
	res1, err := MonteCarloDirect(bg, d, f, interrupted)
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Degraded || res1.Samples != 300 {
		t.Fatalf("interrupted run: Degraded=%v Samples=%d, want a 300-sample partial", res1.Degraded, res1.Samples)
	}

	resumed := base
	resumed.Checkpoint = &CheckpointConfig{Store: openStore(t, dir, nil), Every: 100, Resume: true}
	res2, err := MonteCarloDirect(bg, d, f, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Resumed {
		t.Fatal("resumed run did not report Resumed")
	}
	if res2.Degraded {
		t.Fatal("resumed run without budget reported Degraded")
	}
	if res2.Samples != full.Samples {
		t.Fatalf("resumed Samples = %d, uninterrupted = %d", res2.Samples, full.Samples)
	}
	if res2.HFloat != full.HFloat || res2.RFloat != full.RFloat {
		t.Fatalf("resumed H = %v R = %v, uninterrupted H = %v R = %v (must be bit-identical)",
			res2.HFloat, res2.RFloat, full.HFloat, full.RFloat)
	}
	if res2.Seed != base.Seed {
		t.Fatalf("Result.Seed = %d, want %d", res2.Seed, base.Seed)
	}
}

// TestMonteCarloTupleResumeBitIdentical exercises the per-tuple
// Theorem 5.12 engine: the budget cuts it off mid-tuple, the boundary
// snapshot excludes the partial tuple's draws, and the resumed run
// replays that tuple in full — matching the uninterrupted run exactly.
func TestMonteCarloTupleResumeBitIdentical(t *testing.T) {
	d := randUDB(rand.New(rand.NewSource(43)), 3, 5)
	f := logic.MustParse("E(x,x) | S(x)", nil)
	base := Options{Eps: 0.3, Delta: 0.1, Seed: 11}

	full, err := MonteCarlo(bg, d, f, base)
	if err != nil {
		t.Fatal(err)
	}
	if full.Samples < 100 {
		t.Fatalf("test needs a run long enough to interrupt, got %d samples", full.Samples)
	}

	dir := t.TempDir()
	interrupted := base
	interrupted.Budget = Budget{MaxSamples: full.Samples / 2}
	interrupted.Checkpoint = &CheckpointConfig{Store: openStore(t, dir, nil), Every: full.Samples / 8}
	res1, err := MonteCarlo(bg, d, f, interrupted)
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Degraded {
		t.Fatal("budget-interrupted run did not report Degraded")
	}

	resumed := base
	resumed.Checkpoint = &CheckpointConfig{Store: openStore(t, dir, nil), Resume: true}
	res2, err := MonteCarlo(bg, d, f, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Resumed {
		t.Fatal("resumed run did not report Resumed")
	}
	if res2.HFloat != full.HFloat || res2.Samples != full.Samples || res2.Eps != full.Eps {
		t.Fatalf("resumed (H=%v samples=%d eps=%v) != uninterrupted (H=%v samples=%d eps=%v)",
			res2.HFloat, res2.Samples, res2.Eps, full.HFloat, full.Samples, full.Eps)
	}
}

// TestLineageKLBudgetResume: the FPTRAS fails hard on budget
// exhaustion (its relative guarantee admits no partial result), but it
// snapshots first — so a rerun with a larger budget and Resume set
// picks up at the failed tuple instead of starting over, and finishes
// bit-identical to an uninterrupted run. The budget is held to the t
// the route draws — φ's plan on the direct route, that of φ” on the
// Theorem 5.3 route: a budget of the full run's samples suffices, any
// smaller one fails, and no run draws past its budget.
func TestLineageKLBudgetResume(t *testing.T) {
	d := randUDB(rand.New(rand.NewSource(44)), 3, 4)
	base := Options{Eps: 0.4, Delta: 0.2, Seed: 13}
	for _, q := range []string{"exists y . (E(x,y) & S(y))", "exists x y . (E(x,y) & S(y))"} {
		f := logic.MustParse(q, nil)
		for _, thm53 := range []bool{false, true} {
			name := fmt.Sprintf("%s thm53=%v", q, thm53)
			full, err := LineageKL(bg, d, f, base, thm53)
			if err != nil {
				t.Fatal(err)
			}
			if full.Samples < 10 {
				t.Fatalf("%s: test needs a sampling run, got %d samples", name, full.Samples)
			}
			for _, budget := range []int{full.Samples / 4, full.Samples / 2, full.Samples * 3 / 4, full.Samples - 1, full.Samples} {
				o := base
				o.Budget = Budget{MaxSamples: budget}
				drawn := 0
				o.Checkpoint = &CheckpointConfig{Publish: func(seq int, _ []byte) { drawn = max(drawn, seq) }}
				res, err := LineageKL(bg, d, f, o, thm53)
				switch {
				case budget == full.Samples && (err != nil || res.HFloat != full.HFloat):
					t.Fatalf("%s: budget = full run: H=%v, %v; want H=%v", name, res.HFloat, err, full.HFloat)
				case budget < full.Samples && !errors.Is(err, ErrBudgetExceeded):
					t.Fatalf("%s: budget %d of %d: err = %v, want ErrBudgetExceeded", name, budget, full.Samples, err)
				case drawn > budget:
					t.Fatalf("%s: drew %d samples on a budget of %d", name, drawn, budget)
				}
			}

			dir := t.TempDir()
			interrupted := base
			interrupted.Budget = Budget{MaxSamples: full.Samples - 1}
			interrupted.Checkpoint = &CheckpointConfig{Store: openStore(t, dir, nil)}
			if _, err := LineageKL(bg, d, f, interrupted, thm53); !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("%s: interrupted run: err = %v, want ErrBudgetExceeded", name, err)
			}
			resumed := base
			resumed.Checkpoint = &CheckpointConfig{Store: openStore(t, dir, nil), Resume: true}
			res2, err := LineageKL(bg, d, f, resumed, thm53)
			if err != nil {
				t.Fatal(err)
			}
			if !res2.Resumed {
				t.Fatalf("%s: resumed run did not report Resumed", name)
			}
			if res2.HFloat != full.HFloat || res2.Samples != full.Samples {
				t.Fatalf("%s: resumed (H=%v samples=%d) != uninterrupted (H=%v samples=%d)",
					name, res2.HFloat, res2.Samples, full.HFloat, full.Samples)
			}
		}
	}
}

// TestResumeFingerprintMismatch: a snapshot resumes only into the
// identical computation — changing the seed, the query, or the engine
// is rejected with ErrCheckpointMismatch instead of silently producing
// a statistically meaningless splice.
func TestResumeFingerprintMismatch(t *testing.T) {
	d := randUDB(rand.New(rand.NewSource(45)), 3, 4)
	f := logic.MustParse("S(x)", nil)
	base := Options{Eps: 0.1, Delta: 0.2, Seed: 1}
	dir := t.TempDir()
	first := base
	first.Checkpoint = &CheckpointConfig{Store: openStore(t, dir, nil)}
	if _, err := MonteCarloDirect(bg, d, f, first); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		run  func(cfg *CheckpointConfig) error
	}{
		{"different-seed", func(cfg *CheckpointConfig) error {
			opts := base
			opts.Seed = 2
			opts.Checkpoint = cfg
			_, err := MonteCarloDirect(bg, d, f, opts)
			return err
		}},
		{"different-query", func(cfg *CheckpointConfig) error {
			opts := base
			opts.Checkpoint = cfg
			_, err := MonteCarloDirect(bg, d, logic.MustParse("E(x,x)", nil), opts)
			return err
		}},
		{"different-engine", func(cfg *CheckpointConfig) error {
			opts := base
			opts.Checkpoint = cfg
			_, err := MonteCarloRare(bg, d, f, opts)
			return err
		}},
		{"different-eps", func(cfg *CheckpointConfig) error {
			opts := base
			opts.Eps = 0.3
			opts.Checkpoint = cfg
			_, err := MonteCarloDirect(bg, d, f, opts)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := &CheckpointConfig{Store: openStore(t, dir, nil), Resume: true}
			if err := tc.run(cfg); !errors.Is(err, ErrCheckpointMismatch) {
				t.Fatalf("err = %v, want ErrCheckpointMismatch", err)
			}
		})
	}
}

// TestResumeCorruptNewestFallsBack: a torn or corrupted newest
// snapshot is rejected (and counted) and the resume restarts from the
// last good snapshot — replaying more of the stream but landing on the
// same bit-identical result.
func TestResumeCorruptNewestFallsBack(t *testing.T) {
	d := randUDB(rand.New(rand.NewSource(46)), 3, 6)
	f := logic.MustParse("E(x,y) & S(x)", nil)
	base := Options{Eps: 0.05, Delta: 0.05, Seed: 7}
	full, err := MonteCarloDirect(bg, d, f, base)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	interrupted := base
	interrupted.Budget = Budget{MaxSamples: 300}
	interrupted.Checkpoint = &CheckpointConfig{Store: openStore(t, dir, nil), Every: 100}
	if _, err := MonteCarloDirect(bg, d, f, interrupted); err != nil {
		t.Fatal(err)
	}
	snaps := snapshotFiles(t, dir)
	if len(snaps) < 2 {
		t.Fatalf("need >= 2 snapshots for a fallback test, have %d", len(snaps))
	}
	// Flip one payload byte of the newest snapshot: a torn write.
	newest := snaps[len(snaps)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(newest, data, 0o666); err != nil {
		t.Fatal(err)
	}

	metrics := &checkpoint.Metrics{}
	resumed := base
	resumed.Checkpoint = &CheckpointConfig{Store: openStore(t, dir, metrics), Every: 100, Resume: true}
	res2, err := MonteCarloDirect(bg, d, f, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Resumed {
		t.Fatal("resumed run did not report Resumed")
	}
	if res2.HFloat != full.HFloat || res2.Samples != full.Samples {
		t.Fatalf("resumed (H=%v samples=%d) != uninterrupted (H=%v samples=%d)",
			res2.HFloat, res2.Samples, full.HFloat, full.Samples)
	}
	if metrics.Snapshot().CorruptRejected == 0 {
		t.Fatal("corrupt newest snapshot was not counted as rejected")
	}
}

// TestResumeAllCorruptSurfacesTypedError: when every snapshot is
// mutilated the resume fails with the typed corruption error — never a
// panic, never a silent fresh start that would masquerade as a resume.
func TestResumeAllCorruptSurfacesTypedError(t *testing.T) {
	d := randUDB(rand.New(rand.NewSource(47)), 3, 4)
	f := logic.MustParse("S(x)", nil)
	base := Options{Eps: 0.1, Delta: 0.2, Seed: 3}
	dir := t.TempDir()
	first := base
	first.Checkpoint = &CheckpointConfig{Store: openStore(t, dir, nil)}
	if _, err := MonteCarloDirect(bg, d, f, first); err != nil {
		t.Fatal(err)
	}
	for _, path := range snapshotFiles(t, dir) {
		if err := os.WriteFile(path, make([]byte, 10), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	resumed := base
	resumed.Checkpoint = &CheckpointConfig{Store: openStore(t, dir, nil), Resume: true}
	if _, err := MonteCarloDirect(bg, d, f, resumed); !errors.Is(err, checkpoint.ErrCorruptCheckpoint) {
		t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
	}
}

// TestResumeCompletedRunReplaysInstantly: the completion snapshot lets
// a finished job be re-served without re-sampling — the resume
// restores the final state and draws zero new samples.
func TestResumeCompletedRunReplaysInstantly(t *testing.T) {
	d := randUDB(rand.New(rand.NewSource(48)), 3, 5)
	f := logic.MustParse("E(x,y) & S(x)", nil)
	base := Options{Eps: 0.1, Delta: 0.1, Seed: 21}
	dir := t.TempDir()
	first := base
	first.Checkpoint = &CheckpointConfig{Store: openStore(t, dir, nil)}
	res1, err := MonteCarloDirect(bg, d, f, first)
	if err != nil {
		t.Fatal(err)
	}
	metrics := &checkpoint.Metrics{}
	resumed := base
	resumed.Checkpoint = &CheckpointConfig{Store: openStore(t, dir, metrics), Resume: true}
	res2, err := MonteCarloDirect(bg, d, f, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res2.HFloat != res1.HFloat || res2.Samples != res1.Samples || !res2.Resumed {
		t.Fatalf("replayed result differs: %+v vs %+v", res2, res1)
	}
	// The replay must not write a duplicate snapshot chain entry.
	if w := metrics.Snapshot().Written; w != 0 {
		t.Fatalf("instant replay wrote %d snapshots, want 0", w)
	}
}

// TestReliabilityWithEchoesSeed: the dispatcher stamps the seed on
// every result, exact engines included, so any run can be reproduced.
func TestReliabilityWithEchoesSeed(t *testing.T) {
	d := randUDB(rand.New(rand.NewSource(49)), 3, 3)
	f := logic.MustParse("S(x)", nil)
	res, err := ReliabilityWith(bg, EngineQFree, d, f, Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seed != 99 {
		t.Fatalf("Result.Seed = %d, want 99", res.Seed)
	}
}
