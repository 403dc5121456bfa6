package store

import (
	"math/rand"
	"path/filepath"
	"testing"

	"qrel/internal/ra"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// TestPassAllocationsDoNotGrowWithScannedTuples is the allocation gate
// of the borrowed-row pipeline. One σ[x≠y](E) ⋈ S(y) pass over the
// memory source and over a store whose pool holds the file, and one
// Store.Verify, run at two sizes of E with the same S. Allocations may
// grow with output rows and pages, but a scanned tuple must cost none:
// the larger E may add at most one allocation per 100 extra scanned
// tuples. A scan that hands out fresh rows costs about two per tuple.
func TestPassAllocationsDoNotGrowWithScannedTuples(t *testing.T) {
	const (
		n           = 256
		labels      = 16
		smallEdges  = 4000
		largeEdges  = 16000
		maxPerTuple = 0.01
	)
	q := ra.Join{
		L: ra.Select{From: ra.Base{Rel: "E", Attrs: []string{"x", "y"}}, Attr: "x", Other: "y", Elem: -1, Negate: true},
		R: ra.Base{Rel: "S", Attrs: []string{"y"}},
	}
	voc := rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2}, rel.RelSym{Name: "S", Arity: 1})
	type sized struct {
		edges int
		mem   *rel.Structure
		fit   *Store
	}
	sizes := []*sized{{edges: smallEdges}, {edges: largeEdges}}
	for _, sz := range sizes {
		a := rel.MustStructure(n, voc)
		rng := rand.New(rand.NewSource(1998))
		for a.Rel("E").Len() < sz.edges {
			a.MustAdd("E", rng.Intn(n), rng.Intn(n))
		}
		for y := 0; y < labels; y++ {
			a.MustAdd("S", y)
		}
		path := filepath.Join(t.TempDir(), "db.qstore")
		if err := BuildFromDB(path, unreliable.New(a), Options{PageSize: 4096}, 0, nil); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path, Options{PoolBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if int64(s.PageCount()*s.PageSize()) > 1<<20 {
			t.Fatalf("E of %d tuples: file of %d pages does not fit the pool", sz.edges, s.PageCount())
		}
		sz.mem, sz.fit = a, s
	}
	pass := func(t *testing.T, src ra.Source) {
		it, _, err := ra.Build(src, q)
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		for {
			_, _, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return
			}
		}
	}
	runs := []struct {
		name string
		run  func(t *testing.T, sz *sized)
	}{
		{"pipeline/memory", func(t *testing.T, sz *sized) { pass(t, ra.StructureSource(sz.mem)) }},
		{"pipeline/paged-fit", func(t *testing.T, sz *sized) { pass(t, sz.fit) }},
		{"verify", func(t *testing.T, sz *sized) {
			if _, err := sz.fit.Verify(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			var allocs [2]float64
			for i, sz := range sizes {
				r.run(t, sz) // warm the pool
				allocs[i] = testing.AllocsPerRun(5, func() { r.run(t, sz) })
			}
			perTuple := (allocs[1] - allocs[0]) / float64(largeEdges-smallEdges)
			t.Logf("%v allocations at |E| = %d, %v at %d: %.4f per extra scanned tuple",
				allocs[0], smallEdges, allocs[1], largeEdges, perTuple)
			if perTuple > maxPerTuple {
				t.Errorf("%.4f allocations per extra scanned tuple, want at most %v", perTuple, maxPerTuple)
			}
		})
	}
}
