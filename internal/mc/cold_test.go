package mc_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"qrel/internal/logic"
	"qrel/internal/mc"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// TestColdDatabaseEntryPoints runs every estimator entry point that
// takes a database — parallel, ranged, compiled — on a database nobody
// has read before, with four workers, and requires the answer of the
// same call on a warmed copy. A database builds its uncertain-atom
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
	par := mc.Par{Workers: 4}
	rng := mc.Range{Lo: 1, Hi: 6, Total: mc.DefaultLanes}
	calls := map[string]func(db *unreliable.DB) (any, error){
		"EstimateMeanPar": func(db *unreliable.DB) (any, error) {
			return mc.EstimateMeanPar(ctx, db, stat, eps, delta, 0, seed, par, nil)
		},
		"EstimateMeanParCompiled": func(db *unreliable.DB) (any, error) {
			return mc.EstimateMeanParCompiled(ctx, db, cm, eps, delta, 0, seed, par, nil)
		},
		"EstimateMeanRange": func(db *unreliable.DB) (any, error) {
			return mc.EstimateMeanRange(ctx, db, stat, eps, delta, 0, seed, rng, 4, nil)
		},
		"EstimateMeanRangeCompiled": func(db *unreliable.DB) (any, error) {
			return mc.EstimateMeanRangeCompiled(ctx, db, cm, eps, delta, 0, seed, rng, 4, nil)
		},
		"EstimateMeanRarePar": func(db *unreliable.DB) (any, error) {
			return mc.EstimateMeanRarePar(ctx, db, stat, eps, delta, 0, seed, par, nil)
		},
		"EstimateNuPaddedPar": func(db *unreliable.DB) (any, error) {
			return mc.EstimateNuPaddedPar(ctx, db, pred, 0, 0.2, delta, 0, seed, par, nil)
		},
		"EstimateNuPaddedParCompiled": func(db *unreliable.DB) (any, error) {
			return mc.EstimateNuPaddedParCompiled(ctx, db, prog, 0, 0.2, delta, 0, seed, par, nil)
		},
		"EstimateMeanCompiled": func(db *unreliable.DB) (any, error) {
			return mc.EstimateMeanCompiled(ctx, db, cm, eps, delta, 0, rand.New(rand.NewSource(seed)))
		},
		"EstimateMeanCkCompiled": func(db *unreliable.DB) (any, error) {
			return mc.EstimateMeanCkCompiled(ctx, db, cm, eps, delta, 0, mc.NewSource(seed), nil)
		},
		"EstimateNuPaddedCompiled": func(db *unreliable.DB) (any, error) {
			return mc.EstimateNuPaddedCompiled(ctx, db, prog, 0, 0.2, delta, 0, rand.New(rand.NewSource(seed)))
		},
		"EstimateNuPaddedCkCompiled": func(db *unreliable.DB) (any, error) {
			return mc.EstimateNuPaddedCkCompiled(ctx, db, prog, 0, 0.2, delta, 0, mc.NewSource(seed), nil)
		},
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
