package store_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"qrel/internal/ra"
	"qrel/internal/rel"
	"qrel/internal/store"
	"qrel/internal/unreliable"
)

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
		src := ra.StructureSource(a)
		for i := 0; i < b.N; i++ {
			drain(b, src)
		}
	})

	path := filepath.Join(b.TempDir(), "bench.qstore")
	if err := store.BuildFromDB(path, unreliable.New(a), store.Options{PageSize: 4096}, 0, nil); err != nil {
		b.Fatal(err)
	}
	for _, pool := range []int64{64 << 10, 256 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("source=paged/pool=%dKiB", pool>>10), func(b *testing.B) {
			s, err := store.Open(path, store.Options{PoolBytes: pool})
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
