package store

import (
	"fmt"
	"math/big"
	"math/rand"
	"path/filepath"
	"testing"

	"qrel/internal/ra"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

// BenchmarkStoreBuild measures the ingest BuildFromDB runs: 60 000
// edges and 16 labels into a fresh 4 KiB-page file under the default
// pool, committing every 20 000 tuples. Beside time and allocations it
// reports buffer-pool fetches per build, which stay near one per page
// (plus the meta chain per commit) because an insert that fits the held
// tail page fetches nothing.
func BenchmarkStoreBuild(b *testing.B) {
	const n = 256
	voc := rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2}, rel.RelSym{Name: "S", Arity: 1})
	a := rel.MustStructure(n, voc)
	rng := rand.New(rand.NewSource(1998))
	for a.Rel("E").Len() < 60000 {
		a.MustAdd("E", rng.Intn(n), rng.Intn(n))
	}
	for i := 0; i < 16; i++ {
		a.MustAdd("S", i)
	}
	db := unreliable.New(a)
	path := filepath.Join(b.TempDir(), "build.qstore")
	b.ReportAllocs()
	b.ResetTimer()
	var fetches uint64
	for i := 0; i < b.N; i++ {
		s, err := Create(path, a, Options{PageSize: 4096})
		if err != nil {
			b.Fatal(err)
		}
		err = s.ingest(db, 20000, nil)
		st := s.Stats()
		fetches += st.Hits + st.Misses
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fetches)/float64(b.N), "fetches/op")
}

// BenchmarkStoreStream measures the streaming scan→filter→join
// pipeline over the two Source implementations: the memory-resident
// structure and the paged store, with the buffer-pool byte budget as
// a dimension. Small pools force evictions on every pass, so the
// paged rows price the page-fault overhead of running under a budget
// smaller than the dataset; the memory row is the floor.
func BenchmarkStoreStream(b *testing.B) {
	const n = 256
	voc := rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2}, rel.RelSym{Name: "S", Arity: 1})
	a := rel.MustStructure(n, voc)
	rng := rand.New(rand.NewSource(1998))
	for i := 0; i < 60000; i++ {
		a.MustAdd("E", rng.Intn(n), rng.Intn(n))
	}
	for i := 0; i < 16; i++ {
		a.MustAdd("S", i)
	}
	query := ra.Join{
		L: ra.Select{From: ra.Base{Rel: "E", Attrs: []string{"x", "y"}}, Attr: "x", Other: "y", Elem: -1, Negate: true},
		R: ra.Base{Rel: "S", Attrs: []string{"y"}},
	}
	drain := func(b *testing.B, src ra.Source) {
		it, _, err := ra.Build(src, query)
		if err != nil {
			b.Fatal(err)
		}
		defer it.Close()
		for {
			_, _, ok, err := it.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				return
			}
		}
	}

	b.Run("source=memory", func(b *testing.B) {
		b.ReportAllocs()
		src := ra.StructureSource(a)
		for i := 0; i < b.N; i++ {
			drain(b, src)
		}
	})

	path := filepath.Join(b.TempDir(), "bench.qstore")
	if err := BuildFromDB(path, unreliable.New(a), Options{PageSize: 4096}, 0, nil); err != nil {
		b.Fatal(err)
	}
	for _, pool := range []int64{64 << 10, 256 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("source=paged/pool=%dKiB", pool>>10), func(b *testing.B) {
			b.ReportAllocs()
			s, err := Open(path, Options{PoolBytes: pool})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < b.N; i++ {
				drain(b, s)
			}
		})
	}
}

// BenchmarkStoreLoadDB measures LoadDB, the cold snapshot a server
// builds when a store changes: a 1 024-element graph of 40 000 edge
// draws and 16 labels with 2 000 uncertain edges, read through the
// default pool.
func BenchmarkStoreLoadDB(b *testing.B) {
	const n = 1024
	voc := rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2}, rel.RelSym{Name: "S", Arity: 1})
	a := rel.MustStructure(n, voc)
	rng := rand.New(rand.NewSource(1998))
	for i := 0; i < 40000; i++ {
		a.MustAdd("E", rng.Intn(n), rng.Intn(n))
	}
	for i := 0; i < 16; i++ {
		a.MustAdd("S", i)
	}
	db := unreliable.New(a)
	for db.NumUncertain() < 2000 {
		db.MustSetError(rel.GroundAtom{Rel: "E", Args: rel.Tuple{rng.Intn(n), rng.Intn(n)}}, big.NewRat(int64(1+rng.Intn(9)), 10))
	}
	path := filepath.Join(b.TempDir(), "load.qstore")
	if err := BuildFromDB(path, db, Options{PageSize: 4096}, 0, nil); err != nil {
		b.Fatal(err)
	}
	s, err := Open(path, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.LoadDB(); err != nil {
			b.Fatal(err)
		}
	}
}
