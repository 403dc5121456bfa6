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
//
// The same pass and Verify also run on a 128-byte-page copy of the
// file through a four-frame pool, under a tenth of the file, so nearly
// every page fetch misses and evicts. There an extra page may add at
// most 0.05 allocations: a miss reuses an evicted frame. A pool that
// allocates a frame per miss costs two per page in Verify alone.
func TestPassAllocationsDoNotGrowWithScannedTuples(t *testing.T) {
	const (
		n           = 256
		labels      = 16
		smallEdges  = 4000
		largeEdges  = 16000
		maxPerTuple = 0.01
		maxPerPage  = 0.05
		smallPage   = 128
		smallPool   = 4 * smallPage
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
		small *Store // 128-byte pages, a four-frame pool
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
		small := filepath.Join(t.TempDir(), "small.qstore")
		if err := BuildFromDB(small, unreliable.New(a), Options{PageSize: smallPage}, 0, nil); err != nil {
			t.Fatal(err)
		}
		if sz.small, err = Open(small, Options{PoolBytes: smallPool}); err != nil {
			t.Fatal(err)
		}
		defer sz.small.Close()
		if int64(sz.small.PageCount()*smallPage) < 10*smallPool {
			t.Fatalf("E of %d tuples: file of %d small pages is under ten pools", sz.edges, sz.small.PageCount())
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
	verify := func(t *testing.T, s *Store) {
		if _, err := s.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	runs := []struct {
		name    string
		run     func(t *testing.T, sz *sized)
		perPage bool // gate per extra page of the small-page file, not per extra tuple
	}{
		{"pipeline/memory", func(t *testing.T, sz *sized) { pass(t, ra.StructureSource(sz.mem)) }, false},
		{"pipeline/paged-fit", func(t *testing.T, sz *sized) { pass(t, sz.fit) }, false},
		{"verify", func(t *testing.T, sz *sized) { verify(t, sz.fit) }, false},
		{"pipeline/paged-small", func(t *testing.T, sz *sized) { pass(t, sz.small) }, true},
		{"verify/small", func(t *testing.T, sz *sized) { verify(t, sz.small) }, true},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			var allocs [2]float64
			for i, sz := range sizes {
				r.run(t, sz) // warm the pool
				allocs[i] = testing.AllocsPerRun(5, func() { r.run(t, sz) })
			}
			unit, extra, limit := "scanned tuple", float64(largeEdges-smallEdges), maxPerTuple
			if r.perPage {
				unit, extra, limit = "page", float64(sizes[1].small.PageCount()-sizes[0].small.PageCount()), maxPerPage
			}
			per := (allocs[1] - allocs[0]) / extra
			t.Logf("%v allocations at |E| = %d, %v at %d: %.4f per extra %s",
				allocs[0], smallEdges, allocs[1], largeEdges, per, unit)
			if per > limit {
				t.Errorf("%.4f allocations per extra %s, want at most %v", per, unit, limit)
			}
		})
	}
}
