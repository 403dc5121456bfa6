package core

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qrel/internal/checkpoint"
	"qrel/internal/logic"
	"qrel/internal/mc"
	"qrel/internal/unreliable"
)

// Golden sample streams. Every other bit-identity test in the tree is
// relative — mode A against mode B inside one build — so a change that
// shifts the draw order of all modes at once passes them all while
// breaking resume of checkpoints written by the previous build and
// mixed-version clusters. The literals and testdata/ frames below were
// recorded at commit a543416 and are the contract of the sampling
// runtime: a (db, query, seed, options) names one estimate, bit for
// bit, in every later build.
//
// -golden.print logs the observed rows in table syntax and
// -golden.write rewrites the testdata/ frames; both exist for adding
// cases, never for moving existing ones.
var (
	goldenPrint = flag.Bool("golden.print", false, "log observed golden rows instead of comparing")
	goldenWrite = flag.Bool("golden.write", false, "rewrite testdata/golden_*.frame from this build")
)

// goldenInstances are the two fixed inputs: a Boolean query and one
// with a free variable, both existential so every sampling engine
// accepts them. S(2) errs with 1/3 so the Theorem 5.3 route has
// illegal block assignments to discount.
var goldenInstances = []struct {
	name, db, query string
}{
	{"bool", `universe 4
rel E/2
rel S/1
E 0 1 err 1/4
E 1 2
E 2 3 err 1/2
E 3 0 err 1/8
E 0 2 err 3/4
S 0 err 1/4
S 2 err 1/3
S 3
S 1 err 7/8
`, "exists x y . E(x,y) & S(y)"},
	{"free", `universe 3
rel E/2
rel S/1
E 0 1 err 1/4
E 1 2 err 1/2
E 2 0
E 0 0 err 1/8
S 0 err 1/2
S 1
S 2 err 1/3
`, "exists y . E(x,y) & S(y)"},
}

func goldenInstance(t *testing.T, i int) (*unreliable.DB, logic.Formula) {
	t.Helper()
	in := goldenInstances[i]
	db, err := unreliable.ParseDB(strings.NewReader(in.db))
	if err != nil {
		t.Fatalf("instance %s: %v", in.name, err)
	}
	f, err := logic.Parse(in.query, db.A.Voc)
	if err != nil {
		t.Fatalf("instance %s: %v", in.name, err)
	}
	return db, f
}

// goldenEngines maps the engine strings to their entry points with the
// accuracy each is pinned at.
var goldenEngines = map[string]struct {
	run        func(context.Context, *unreliable.DB, logic.Formula, Options) (Result, error)
	eps, delta float64
}{
	"monte-carlo":        {MonteCarlo, 0.3, 0.1},
	"monte-carlo-direct": {MonteCarloDirect, 0.03, 0.05},
	"monte-carlo-rare":   {MonteCarloRare, 0.03, 0.05},
	"lineage-karpluby": {func(ctx context.Context, db *unreliable.DB, f logic.Formula, o Options) (Result, error) {
		return LineageKL(ctx, db, f, o, false)
	}, 0.2, 0.1},
	"lineage-karpluby-thm53": {func(ctx context.Context, db *unreliable.DB, f logic.Formula, o Options) (Result, error) {
		return LineageKL(ctx, db, f, o, true)
	}, 0.2, 0.1},
}

const goldenSeed = 1998

func goldenOptions(engine string, workers int, eval string) Options {
	e := goldenEngines[engine]
	return Options{Eps: e.eps, Delta: e.delta, Seed: goldenSeed, Workers: workers, Eval: eval}
}

// goldenRow is one pinned outcome.
type goldenRow struct {
	r       uint64 // math.Float64bits(RFloat)
	samples int
	eps     uint64 // math.Float64bits(Eps)
}

func rowOf(res Result) goldenRow {
	return goldenRow{math.Float64bits(res.RFloat), res.Samples, math.Float64bits(res.Eps)}
}

func (g goldenRow) String() string {
	return fmt.Sprintf("{0x%016x, %d, 0x%016x}", g.r, g.samples, g.eps)
}

// checkRow compares an observed row to its literal, or logs it in
// table syntax under -golden.print.
func checkRow(t *testing.T, key string, got, want goldenRow) {
	t.Helper()
	if *goldenPrint {
		t.Logf("GOLDEN %q: %v,", key, got)
		return
	}
	if got != want {
		t.Errorf("%s: got %v, pinned %v", key, got, want)
	}
}

// goldenStreams pins every engine on both instances on the one sample
// stream a request can name, the DefaultLanes lane split. Each row must
// hold for both eval modes and every worker count: Workers only
// schedules the lanes.
// The lineage-karpluby* rows were re-pinned once, on purpose, when the
// Karp–Luby sample size moved from Lemma 5.11's worst case to the
// coverage-bound planner (karpluby.Planner); the monte-carlo* rows, with
// goldenRanges, goldenPartial and the golden_direct / golden_padded
// frames, once when the world draw moved from one Float64 per atom per
// sample to the bit-sliced block draw (mc.WorldStream).
var goldenStreams = map[string]goldenRow{
	"monte-carlo/bool/lanes":            {0x3fec6961bdf96cdb, 1843, 0x3fd3333333333333},
	"monte-carlo/free/lanes":            {0x3fe20a03be0ee82e, 73467, 0x3fd3333333333333},
	"monte-carlo-direct/bool/lanes":     {0x3fee6067e6067e60, 2050, 0x3f9eb851eb851eb8},
	"monte-carlo-direct/free/lanes":     {0x3fe1fe2b1fe2b200, 2050, 0x3f9eb851eb851eb8},
	"monte-carlo-rare/bool/lanes":       {0x3fee5234fddae7e7, 2029, 0x3f9eb851eb851eb8},
	"monte-carlo-rare/free/lanes":       {0x3fe2034e67e95414, 1626, 0x3f9eb851eb851eb8},
	"lineage-karpluby/bool/lanes":       {0x3fee969696969697, 782, 0x3fc999999999999a},
	"lineage-karpluby/free/lanes":       {0x3fe1f03b2ec67366, 14021, 0x3fc999999999999a},
	"lineage-karpluby-thm53/bool/lanes": {0x3fed29f6c3905d2a, 1275, 0x3fc999999999999a},
	"lineage-karpluby-thm53/free/lanes": {0x3fe1eb461e420540, 20610, 0x3fc999999999999a},
}

func TestGoldenStreams(t *testing.T) {
	for engine, e := range goldenEngines {
		for inst := range goldenInstances {
			db, f := goldenInstance(t, inst)
			key := engine + "/" + goldenInstances[inst].name + "/lanes"
			printed := false
			for _, w := range []int{0, 1, 2, 3} {
				for _, eval := range []string{EvalCompiled, EvalInterpreted} {
					res, err := e.run(bg, db, f, goldenOptions(engine, w, eval))
					if err != nil {
						t.Fatalf("%s workers=%d eval=%s: %v", key, w, eval, err)
					}
					if res.Degraded {
						t.Fatalf("%s workers=%d eval=%s: unexpectedly degraded", key, w, eval)
					}
					if *goldenPrint && printed {
						continue
					}
					printed = true
					checkRow(t, key, rowOf(res), goldenStreams[key])
				}
			}
		}
	}
}

// goldenRanges pins the lane-range path of monte-carlo-direct: the two
// ranges' attestation digests. The MergeMean of their aggregates is
// pinned by the single-node lane-split row.
var goldenRanges = map[string]string{
	"bool/0-3/8": "240ca115e32d992baa18b9044a10a1483e211e125aaa290feaa3ee9a0822c4b7",
	"bool/3-8/8": "de7872eb7e6197f931b89a4d8f96e626fc7f465fbb3e6f094b5d72d3f8376810",
	"free/0-3/8": "c488bd042d044853be821b873e333b4b609c74c1c33c3931e94b63ebcebcb535",
	"free/3-8/8": "390b7ab8804db54ade5c6e3b197c9995c6cabadd089f8eef13cb80ad409c4b62",
}

func TestGoldenLaneRanges(t *testing.T) {
	for inst := range goldenInstances {
		db, f := goldenInstance(t, inst)
		name := goldenInstances[inst].name
		for _, eval := range []string{EvalCompiled, EvalInterpreted} {
			var aggs []mc.LaneAgg
			for _, r := range []mc.Range{{Lo: 0, Hi: 3, Total: 8}, {Lo: 3, Hi: 8, Total: 8}} {
				o := goldenOptions("monte-carlo-direct", 2, eval)
				o.LaneRange = &r
				res, err := MonteCarloDirect(bg, db, f, o)
				if err != nil {
					t.Fatalf("%s range %v: %v", name, r, err)
				}
				key := name + "/" + r.String()
				digest := mc.RangeDigest(res.LaneRange.Lanes)
				if *goldenPrint {
					if eval == EvalCompiled {
						t.Logf("GOLDEN %q: %q,", key, digest)
					}
				} else if digest != goldenRanges[key] {
					t.Errorf("%s eval=%s: digest %s, pinned %s", key, eval, digest, goldenRanges[key])
				}
				aggs = append(aggs, res.LaneRange.Lanes...)
			}
			e := goldenEngines["monte-carlo-direct"]
			est, err := mc.MergeMean(aggs, 8, e.eps, e.delta, 0)
			if err != nil {
				t.Fatalf("%s merge: %v", name, err)
			}
			got := goldenRow{math.Float64bits(1 - est.Value), est.Samples, math.Float64bits(est.Eps)}
			if want := goldenStreams["monte-carlo-direct/"+name+"/lanes"]; !*goldenPrint && got != want {
				t.Errorf("%s eval=%s: merged %v, pinned single-node lanes row %v", name, eval, got, want)
			}
		}
	}
}

// goldenPartial pins the anytime readings on the lane split: a
// MaxSamples cut under Workers 0 and 2, and a cancellation fired from
// the checkpoint hook at a fixed sample count under Workers 0 and 1 —
// the one-goroutine schedules, which poll the context at deterministic
// sample counts.
var goldenPartial = map[string]goldenRow{
	"budget/monte-carlo-direct/bool/lanes": {0x3feecfb9c8695362, 700, 0x3faa481c62c3bf1a},
	"budget/monte-carlo-direct/free/lanes": {0x3fe258bf258bf258, 700, 0x3faa481c62c3bf1a},
	"budget/monte-carlo/bool/lanes":        {0x3fee0cad97a64731, 700, 0x3fdf256d4323450f},
	"budget/monte-carlo/free/lanes":        {0x3fe4707a3ad6e0a2, 700, 0x3fe0f9c6919818e9},
	"cancel/monte-carlo-direct/free/lanes": {0x3fe282d282d282d4, 514, 0x3faeaba4dde671f0},
}

func TestGoldenPartial(t *testing.T) {
	for _, engine := range []string{"monte-carlo-direct", "monte-carlo"} {
		for inst := range goldenInstances {
			db, f := goldenInstance(t, inst)
			for _, w := range []int{0, 2} {
				for _, eval := range []string{EvalCompiled, EvalInterpreted} {
					o := goldenOptions(engine, w, eval)
					o.Budget.MaxSamples = 700
					res, err := goldenEngines[engine].run(bg, db, f, o)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Degraded {
						t.Fatalf("%s: budget cut not degraded", engine)
					}
					key := fmt.Sprintf("budget/%s/%s/lanes", engine, goldenInstances[inst].name)
					if eval == EvalCompiled || !*goldenPrint {
						checkRow(t, key, rowOf(res), goldenPartial[key])
					}
				}
			}
		}
	}
	db, f := goldenInstance(t, 1)
	for _, w := range []int{0, 1} {
		for _, eval := range []string{EvalCompiled, EvalInterpreted} {
			ctx, cancel := context.WithCancel(bg)
			o := goldenOptions("monte-carlo-direct", w, eval)
			o.Checkpoint = &CheckpointConfig{Every: 512, Publish: func(seq int, _ []byte) {
				if seq >= 512 {
					cancel()
				}
			}}
			res, err := MonteCarloDirect(ctx, db, f, o)
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Degraded {
				t.Fatal("cancelled run not degraded")
			}
			if eval == EvalCompiled || !*goldenPrint {
				checkRow(t, "cancel/monte-carlo-direct/free/lanes", rowOf(res), goldenPartial["cancel/monte-carlo-direct/free/lanes"])
			}
		}
	}
}

// TestGoldenKarpLubyCancelResumes: Karp–Luby has no partial reading —
// a cancellation from the checkpoint hook is an error — but the
// snapshot it leaves resumes to the pinned uninterrupted estimate.
func TestGoldenKarpLubyCancelResumes(t *testing.T) {
	db, f := goldenInstance(t, 1)
	for _, w := range []int{0, 1, 2} {
		for _, eval := range []string{EvalCompiled, EvalInterpreted} {
			ctx, cancel := context.WithCancel(bg)
			var last []byte
			o := goldenOptions("lineage-karpluby", w, eval)
			o.Checkpoint = &CheckpointConfig{Every: 1, Publish: func(seq int, frame []byte) {
				last = frame
				cancel()
			}}
			_, err := LineageKL(ctx, db, f, o, false)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d eval=%s: cancelled run returned %v", w, eval, err)
			}
			if last == nil {
				t.Fatal("no snapshot published")
			}
			o.Checkpoint = &CheckpointConfig{ResumeFrame: last}
			res, err := LineageKL(bg, db, f, o, false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Resumed {
				t.Fatal("not resumed")
			}
			if *goldenPrint {
				continue
			}
			key := "lineage-karpluby/free/lanes"
			if got := rowOf(res); got != goldenStreams[key] {
				t.Errorf("%s workers=%d eval=%s: resumed %v, pinned %v", key, w, eval, got, goldenStreams[key])
			}
		}
	}
}

// goldenFrames are checkpoint frames saved mid-run by the build at
// a543416 (the golden_kl frames: rewritten with the lineage-karpluby
// rows; the golden_direct and golden_padded frames: with the block
// draw); each must resume, in either eval mode, to the pinned row of
// its uninterrupted run. want names a goldenStreams key, or for the
// lane-range frame a goldenRanges key.
var goldenFrames = []struct {
	file, engine string
	workers      int
	lanes        *mc.Range
	every        int
	want         string
}{
	{"golden_direct_lanes.frame", "monte-carlo-direct", 2, nil, 256, "monte-carlo-direct/free/lanes"},
	{"golden_direct_range.frame", "monte-carlo-direct", 2, &mc.Range{Lo: 3, Hi: 8, Total: 8}, 256, "free/3-8/8"},
	{"golden_padded_lanes.frame", "monte-carlo", 2, nil, 2000, "monte-carlo/free/lanes"},
	{"golden_kl_lanes.frame", "lineage-karpluby", 2, nil, 1, "lineage-karpluby/free/lanes"},
}

func TestGoldenFramesResume(t *testing.T) {
	db, f := goldenInstance(t, 1)
	for _, g := range goldenFrames {
		path := filepath.Join("testdata", g.file)
		run := goldenEngines[g.engine].run
		base := goldenOptions(g.engine, g.workers, EvalCompiled)
		base.LaneRange = g.lanes
		if *goldenWrite {
			// Keep the second published frame: mid-run for every case here.
			var frames [][]byte
			o := base
			o.Checkpoint = &CheckpointConfig{Every: g.every, Publish: func(_ int, frame []byte) {
				frames = append(frames, append([]byte(nil), frame...))
			}}
			if _, err := run(bg, db, f, o); err != nil {
				t.Fatal(err)
			}
			if len(frames) < 3 {
				t.Fatalf("%s: only %d frames published", g.file, len(frames))
			}
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, frames[1], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		frame, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{0, g.workers} {
			for _, eval := range []string{EvalCompiled, EvalInterpreted} {
				o := base
				o.Workers, o.Eval = w, eval
				o.Checkpoint = &CheckpointConfig{ResumeFrame: frame}
				res, err := run(bg, db, f, o)
				if err != nil {
					t.Fatalf("%s workers=%d eval=%s: %v", g.file, w, eval, err)
				}
				if !res.Resumed {
					t.Fatalf("%s: frame not resumed", g.file)
				}
				if *goldenPrint {
					continue
				}
				if g.lanes != nil {
					if d := mc.RangeDigest(res.LaneRange.Lanes); d != goldenRanges[g.want] {
						t.Errorf("%s workers=%d eval=%s: resumed digest %s, pinned %s", g.file, w, eval, d, goldenRanges[g.want])
					}
				} else if got := rowOf(res); got != goldenStreams[g.want] {
					t.Errorf("%s workers=%d eval=%s: resumed %v, pinned %v", g.file, w, eval, got, goldenStreams[g.want])
				}
			}
		}
	}
}

// TestGoldenFramesRefuseOtherPlanner: the golden_kl frame written
// while Karp–Luby ran Lemma 5.11's worst-case t carries no planner tag.
// Resuming it would splice tuples sized under two rules, so the engine
// refuses it, and so does admission (ValidateResumeFrame).
func TestGoldenFramesRefuseOtherPlanner(t *testing.T) {
	db, f := goldenInstance(t, 1)
	const file = "golden_kl_lanes_worstcase.frame"
	frame, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	o := goldenOptions("lineage-karpluby", 2, EvalCompiled)
	if err := ValidateResumeFrame(frame, "lineage-karpluby", f, o); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("%s: admission returned %v, want ErrCheckpointMismatch", file, err)
	}
	o.Checkpoint = &CheckpointConfig{ResumeFrame: frame}
	if _, err := LineageKL(bg, db, f, o, false); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("%s: resume returned %v, want ErrCheckpointMismatch", file, err)
	}
}

// TestGoldenFramesRefuseOtherStream: the *_scalar frames were written
// while the world-sampling engines drew one Float64 per atom per sample.
// Their generator states continue no block stream, so the engines
// refuse them, and so does admission (ValidateResumeFrame).
func TestGoldenFramesRefuseOtherStream(t *testing.T) {
	db, f := goldenInstance(t, 1)
	for _, g := range goldenFrames {
		if !strings.HasPrefix(g.engine, "monte-carlo") {
			continue
		}
		file := strings.TrimSuffix(g.file, ".frame") + "_scalar.frame"
		frame, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		o := goldenOptions(g.engine, g.workers, EvalCompiled)
		o.LaneRange = g.lanes
		if err := ValidateResumeFrame(frame, Engine(g.engine), f, o); !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("%s: admission returned %v, want ErrCheckpointMismatch", file, err)
		}
		o.Checkpoint = &CheckpointConfig{ResumeFrame: frame}
		if _, err := goldenEngines[g.engine].run(bg, db, f, o); !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("%s: resume returned %v, want ErrCheckpointMismatch", file, err)
		}
	}
}

// TestGoldenFramesRefuseSequentialStream: the *_seq frames were written
// by the retired Workers: 0 sequential stream, whose fingerprint says
// lanes 0. Every run now draws from a lane split, so under any worker
// count the engines refuse them, and so does admission.
func TestGoldenFramesRefuseSequentialStream(t *testing.T) {
	db, f := goldenInstance(t, 1)
	for _, g := range []struct{ file, engine string }{
		{"golden_direct_seq.frame", "monte-carlo-direct"},
		{"golden_padded_seq.frame", "monte-carlo"},
		{"golden_kl_seq.frame", "lineage-karpluby"},
	} {
		frame, err := os.ReadFile(filepath.Join("testdata", g.file))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{0, 2} {
			o := goldenOptions(g.engine, w, EvalCompiled)
			if err := ValidateResumeFrame(frame, Engine(g.engine), f, o); !errors.Is(err, ErrCheckpointMismatch) {
				t.Errorf("%s workers=%d: admission returned %v, want ErrCheckpointMismatch", g.file, w, err)
			}
			o.Checkpoint = &CheckpointConfig{ResumeFrame: frame}
			if _, err := goldenEngines[g.engine].run(bg, db, f, o); !errors.Is(err, ErrCheckpointMismatch) {
				t.Errorf("%s workers=%d: resume returned %v, want ErrCheckpointMismatch", g.file, w, err)
			}
		}
	}
}

// TestOneLaneRangeFrameResumes: a width-1 lane range writes the lane
// schema like any other run — LaneCount 1, one lane state — and a
// frame taken mid-run resumes, under any worker count, to the digest
// of the uninterrupted range.
func TestOneLaneRangeFrameResumes(t *testing.T) {
	db, f := goldenInstance(t, 1)
	r := mc.Range{Lo: 3, Hi: 4, Total: 8}
	o := goldenOptions("monte-carlo-direct", 0, EvalCompiled)
	o.LaneRange = &r
	full, err := MonteCarloDirect(bg, db, f, o)
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	cut := o
	cut.Checkpoint = &CheckpointConfig{Every: 64, Publish: func(_ int, frame []byte) {
		frames = append(frames, append([]byte(nil), frame...))
	}}
	if _, err := MonteCarloDirect(bg, db, f, cut); err != nil {
		t.Fatal(err)
	}
	if len(frames) < 3 {
		t.Fatalf("only %d frames published", len(frames))
	}
	for _, frame := range frames {
		payload, err := checkpoint.DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		var st engineState
		if err := json.Unmarshal(payload, &st); err != nil {
			t.Fatal(err)
		}
		if st.Loop == nil || st.Loop.LaneCount != 1 || len(st.Loop.Lanes) != 1 {
			t.Fatalf("one-lane range frame %s: want LaneCount 1 and one lane state", payload)
		}
	}
	want := mc.RangeDigest(full.LaneRange.Lanes)
	for _, w := range []int{0, 1, 2} {
		resumed := o
		resumed.Workers = w
		resumed.Checkpoint = &CheckpointConfig{ResumeFrame: frames[1]}
		res, err := MonteCarloDirect(bg, db, f, resumed)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if got := mc.RangeDigest(res.LaneRange.Lanes); !res.Resumed || got != want {
			t.Errorf("workers=%d: resumed=%v digest %s, uninterrupted %s", w, res.Resumed, got, want)
		}
	}
}
