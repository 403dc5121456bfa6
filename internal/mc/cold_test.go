package mc_test

import (
	"context"
	"reflect"
	"testing"

	"qrel/internal/logic"
	"qrel/internal/mc"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// TestColdDatabaseEntryPoints runs every estimator and kernel that
// takes a database — on lanes and on a lane range — on
// a database nobody has read before, with four workers, and requires
// the answer of the same call on a warmed copy. A database builds its uncertain-atom
// lists on first read; when that first read is four lanes setting up
// at once they must all see the finished lists (they once raced to
// build them, and lanes sampled half a list). Run under -race.
// karpluby's entry points take a DNF, never a database; core's cold
// test reaches them through lineage-kl.
func TestColdDatabaseEntryPoints(t *testing.T) {
	warm := compiledTestDB(t, 19)
	warm.UncertainAtoms() // forces the atom lists
	q := mustParse(t, warm, "forall x . exists y . E(x,y)")
	prog := mustCompile(t, warm, q)
	pred := func(b *rel.Structure) (bool, error) { return logic.EvalSentence(b, q) }
	stat, cm := meanFixture(t, warm, "forall x . exists y . E(x,y)")
	ctx := context.Background()
	const seed, eps, delta = 7, 0.1, 0.1
	lanes := mc.Stream{Seed: seed, Workers: 4}
	rng := mc.Stream{Seed: seed, Range: &mc.Range{Lo: 1, Hi: 6, Total: mc.DefaultLanes}, Workers: 4}
	mean := func(k mc.MeanStat, s mc.Stream) (any, error) {
		est, aggs, err := mc.EstimateMean(ctx, k, eps, delta, 0, s)
		return []any{est, aggs}, err
	}
	padded := func(k mc.PaddedKernel, s mc.Stream) (any, error) {
		return mc.EstimateNuPadded(ctx, k, 0, 0.2, delta, 0, s)
	}
	calls := map[string]func(db *unreliable.DB) (any, error){
		"mean/interpreted/lanes": func(db *unreliable.DB) (any, error) { return mean(mc.MeanKernel(db, stat), lanes) },
		"mean/compiled/lanes":    func(db *unreliable.DB) (any, error) { return mean(cm.Kernel(db), lanes) },
		"mean/interpreted/range": func(db *unreliable.DB) (any, error) { return mean(mc.MeanKernel(db, stat), rng) },
		"mean/compiled/range":    func(db *unreliable.DB) (any, error) { return mean(cm.Kernel(db), rng) },
		"rare/interpreted/lanes": func(db *unreliable.DB) (any, error) {
			return mc.EstimateMeanRare(ctx, db, mc.MeanKernel(db, stat), eps, delta, 0, lanes)
		},
		"rare/compiled/lanes": func(db *unreliable.DB) (any, error) {
			return mc.EstimateMeanRare(ctx, db, cm.Kernel(db), eps, delta, 0, lanes)
		},
		"padded/interpreted/lanes": func(db *unreliable.DB) (any, error) { return padded(mc.PaddedPred(db, pred), lanes) },
		"padded/compiled/lanes":    func(db *unreliable.DB) (any, error) { return padded(mc.PaddedProgram(db, prog), lanes) },
	}
	for name, call := range calls {
		want, err := call(warm)
		if err != nil {
			t.Fatalf("%s warm: %v", name, err)
		}
		got, err := call(warm.Clone()) // a clone starts cold
		if err != nil {
			t.Fatalf("%s cold: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: cold database gave %+v, warmed %+v", name, got, want)
		}
	}
}
