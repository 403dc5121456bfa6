package ra_test

import (
	"path/filepath"
	"testing"

	"qrel/internal/ra"
	"qrel/internal/rel"
	"qrel/internal/store"
	"qrel/internal/unreliable"
)

// The borrow-contract tests of package ra also run over a paged store.
// 128-byte pages and a four-frame pool put every relation of a small
// test database on several pages and evict them mid-plan.
func init() {
	ra.OpenPaged = func(tb testing.TB, db *rel.Structure) ra.Source {
		tb.Helper()
		path := filepath.Join(tb.TempDir(), "db.qstore")
		opts := store.Options{PageSize: 128, PoolBytes: 128 * 4}
		if err := store.BuildFromDB(path, unreliable.New(db), opts, 0, nil); err != nil {
			tb.Fatal(err)
		}
		s, err := store.Open(path, opts)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { s.Close() })
		return s
	}
}
