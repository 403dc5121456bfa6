package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
	"strings"
	"testing"

	"qrel/internal/checkpoint"
	"qrel/internal/logic"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// The per-tuple engines' snapshot contract, pinned frame by frame: a
// snapshot is written at a tuple boundary, its Tuple field counts the
// tuples already in HFloat, and its RNG state is the zero state: each
// tuple re-derives its lanes from mc.TupleSeed.

// tupleEngines are the Corollary 5.5 engines, with the periodic
// snapshot interval their save traces are taken at: about one frame
// per answer tuple.
var tupleEngines = []struct {
	name  string
	every int
}{{"monte-carlo", 2000}, {"lineage-karpluby", 1}, {"lineage-karpluby-thm53", 1}}

// frameTrace runs engine with every snapshot published to a hook and
// returns the save trace, one "seq:hash" word per frame (hash: the
// first 8 bytes of the frame's SHA-256). onFrame, when set, runs after
// each frame is recorded. A run cut short by its budget or its context
// is a trace like any other; any other error fails the test.
func frameTrace(t *testing.T, ctx context.Context, engine string, inst int, o Options, every int, onFrame func()) string {
	t.Helper()
	db, f := goldenInstance(t, inst)
	var words []string
	o.Checkpoint = &CheckpointConfig{Every: every, Publish: func(seq int, frame []byte) {
		sum := sha256.Sum256(frame)
		words = append(words, fmt.Sprintf("%d:%x", seq, sum[:8]))
		if onFrame != nil {
			onFrame()
		}
	}}
	_, err := goldenEngines[engine].run(ctx, db, f, o)
	if err != nil && !errors.Is(err, ErrBudgetExceeded) && !errors.Is(err, context.Canceled) {
		t.Fatalf("%s/%s: %v", engine, goldenInstances[inst].name, err)
	}
	return strings.Join(words, " ")
}

// goldenTraces pins the frames the per-tuple engines publish on the
// golden instances on the lane split, each under Workers 0 and 2
// (Workers 0 and 1 for "mid", whose lanes must poll the context at
// deterministic points): an uninterrupted run
// (every), a Budget.MaxSamples cut at half the uninterrupted run's
// samples (budget), a cancellation from the hook on the first frame
// (between: seen at the next tuple boundary) and one on the context's
// poll halfway through the uninterrupted run's polls (mid: inside a
// tuple's sampling).
var goldenTraces = map[string]string{
	"monte-carlo/bool/every/lanes":              "1843:0441cd59358a6822",
	"monte-carlo/bool/budget/lanes":             "0:597a05107944a036",
	"monte-carlo/bool/between/lanes":            "1843:0441cd59358a6822",
	"monte-carlo/bool/mid/lanes":                "0:597a05107944a036",
	"monte-carlo/free/every/lanes":              "24489:2669e5a333957f27 48978:e4865d12169e5a93 73467:c22e16bc6125e098",
	"monte-carlo/free/budget/lanes":             "24489:2669e5a333957f27 24489:2669e5a333957f27",
	"monte-carlo/free/between/lanes":            "24489:2669e5a333957f27 24489:2669e5a333957f27",
	"monte-carlo/free/mid/lanes":                "24489:2669e5a333957f27 24489:2669e5a333957f27",
	"lineage-karpluby/bool/every/lanes":         "782:31657f20a302c627",
	"lineage-karpluby/bool/budget/lanes":        "0:0b45b35981ce5e6d",
	"lineage-karpluby/bool/between/lanes":       "782:31657f20a302c627",
	"lineage-karpluby/bool/mid/lanes":           "0:0b45b35981ce5e6d",
	"lineage-karpluby/free/every/lanes":         "5729:e77a3c83c26764e5 9875:0f8a7b3b2c62b21e 14021:1ac2e7f8164b2e24",
	"lineage-karpluby/free/budget/lanes":        "5729:e77a3c83c26764e5 5729:e77a3c83c26764e5",
	"lineage-karpluby/free/between/lanes":       "5729:e77a3c83c26764e5",
	"lineage-karpluby/free/mid/lanes":           "5729:e77a3c83c26764e5 5729:e77a3c83c26764e5",
	"lineage-karpluby-thm53/bool/every/lanes":   "1275:1ad5cc451991ecab",
	"lineage-karpluby-thm53/bool/budget/lanes":  "0:68ff06b037ee7464",
	"lineage-karpluby-thm53/bool/between/lanes": "1275:1ad5cc451991ecab",
	"lineage-karpluby-thm53/bool/mid/lanes":     "0:68ff06b037ee7464",
	"lineage-karpluby-thm53/free/every/lanes":   "11489:41f198f2542c30b0 15635:6885a5f71495ed04 20610:0d8396732e9db871",
	"lineage-karpluby-thm53/free/budget/lanes":  "0:44c8344c5003b31f",
	"lineage-karpluby-thm53/free/between/lanes": "11489:41f198f2542c30b0",
	"lineage-karpluby-thm53/free/mid/lanes":     "0:44c8344c5003b31f",
}

func TestGoldenSaveTraces(t *testing.T) {
	for _, e := range tupleEngines {
		for inst := range goldenInstances {
			for _, workers := range []int{0, 2} {
				key := func(c string) string {
					return e.name + "/" + goldenInstances[inst].name + "/" + c + "/lanes"
				}
				check := func(c, got string) {
					t.Helper()
					if *goldenPrint {
						t.Logf("GOLDEN %q: %q,", key(c), got)
					} else if want := goldenTraces[key(c)]; got != want {
						t.Errorf("%s workers=%d: trace\n  %s\npinned\n  %s", key(c), workers, got, want)
					}
				}
				o := goldenOptions(e.name, workers, EvalCompiled)
				db, f := goldenInstance(t, inst)
				full, err := goldenEngines[e.name].run(bg, db, f, o)
				if err != nil {
					t.Fatal(err)
				}
				check("every", frameTrace(t, bg, e.name, inst, o, e.every, nil))

				cut := o
				cut.Budget.MaxSamples = full.Samples / 2
				check("budget", frameTrace(t, bg, e.name, inst, cut, e.every, nil))

				ctx, cancel := context.WithCancel(bg)
				check("between", frameTrace(t, ctx, e.name, inst, o, e.every, cancel))
				cancel()

				o.Workers = min(workers, 1)
				polls := &pollCountingCtx{Context: bg}
				frameTrace(t, polls, e.name, inst, o, e.every, nil)
				mid := &cancelAfterCtx{Context: bg, left: int(polls.polls.Load() / 2)}
				check("mid", frameTrace(t, mid, e.name, inst, o, e.every, nil))
			}
		}
	}
}

// TestTupleDriverEveryCancelPointResumes cancels a per-tuple run at
// every poll of its context in turn — between tuples, inside a tuple's
// lineage, inside its sampling — and resumes every frame the cut runs
// published: each must finish at the uninterrupted run's H and sample
// count. A frame whose Tuple counts a tuple that is not in its HFloat
// (or misses one that is) resumes to another estimate.
func TestTupleDriverEveryCancelPointResumes(t *testing.T) {
	const n = 8
	voc := rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2}, rel.RelSym{Name: "S", Arity: 1})
	path := unreliable.New(rel.MustStructure(n, voc))
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			path.MustSetError(rel.GroundAtom{Rel: "E", Args: rel.Tuple{a, b}}, big.NewRat(1, 2))
		}
		path.MustSetError(rel.GroundAtom{Rel: "S", Args: rel.Tuple{a}}, big.NewRat(1, 2))
	}
	pathQ := logic.MustParse("exists y z . (E(x,y) & E(y,z) & S(z) & S(y))", voc)
	free, freeQ := goldenInstance(t, 1)

	for _, c := range []struct {
		engine string
		db     *unreliable.DB
		f      logic.Formula
		eps    float64
	}{
		{"lineage-karpluby", path, pathQ, 4},
		{"lineage-karpluby-thm53", path, pathQ, 4},
		{"monte-carlo", free, freeQ, 0.9},
	} {
		run := goldenEngines[c.engine].run
		for _, workers := range []int{0, 2} {
			name := fmt.Sprintf("%s workers=%d", c.engine, workers)
			o := Options{Eps: c.eps, Delta: 0.9, Seed: 7, Workers: workers}
			full, err := run(bg, c.db, c.f, o)
			if err != nil {
				t.Fatal(err)
			}
			frames := map[string][]byte{}
			for k := 0; ; k++ {
				ctx := &cancelAfterCtx{Context: bg, left: k}
				cut := o
				cut.Checkpoint = &CheckpointConfig{Every: 1 << 30, Publish: func(_ int, frame []byte) {
					frames[string(frame)] = frame
				}}
				if _, err := run(ctx, c.db, c.f, cut); err == nil && ctx.left >= 0 {
					break // the run polled at most k times: every point is swept
				}
			}
			for _, frame := range frames {
				resumed := o
				resumed.Checkpoint = &CheckpointConfig{ResumeFrame: frame}
				res, err := run(bg, c.db, c.f, resumed)
				if err != nil {
					t.Fatalf("%s: resuming a frame: %v", name, err)
				}
				if res.HFloat != full.HFloat || res.Samples != full.Samples {
					payload, _ := checkpoint.DecodeFrame(frame)
					t.Errorf("%s: frame %s resumes to H=%v samples=%d, uninterrupted H=%v samples=%d",
						name, payload, res.HFloat, res.Samples, full.HFloat, full.Samples)
				}
			}
		}
	}
}
