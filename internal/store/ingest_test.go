package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"qrel/internal/faultinject"
	"qrel/internal/rel"
	"qrel/internal/testutil"
	"qrel/internal/unreliable"
)

// pinnedDB is a fixed unreliable database for byte-pinning: 1500
// edges and 20 labels over 64 elements, with 40 uncertain atoms whose
// probabilities have texts of varied length. It uses its own seeded
// math/rand source, whose sequence Go keeps stable.
func pinnedDB(t *testing.T) *unreliable.DB {
	t.Helper()
	const n = 64
	voc := rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2}, rel.RelSym{Name: "S", Arity: 1})
	a := rel.MustStructure(n, voc)
	rng := rand.New(rand.NewSource(38))
	for a.Rel("E").Len() < 1500 {
		a.MustAdd("E", rng.Intn(n), rng.Intn(n))
	}
	for a.Rel("S").Len() < 20 {
		a.MustAdd("S", rng.Intn(n))
	}
	db := unreliable.New(a)
	for i := 0; i < 40; i++ {
		atom := rel.GroundAtom{Rel: "E", Args: rel.Tuple{rng.Intn(n), rng.Intn(n)}}
		if i%4 == 0 {
			atom = rel.GroundAtom{Rel: "S", Args: rel.Tuple{rng.Intn(n)}}
		}
		if err := db.SetError(atom, big.NewRat(int64(1+rng.Intn(999)), 1000+int64(rng.Intn(7)))); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestBuildFromDBFileBytesPinned pins the SHA-256 of the data file
// BuildFromDB writes for one fixed database, across page sizes, batch
// sizes and a six-page pool that forces auto-commits, and the number
// of commits the same ingest makes on an open store. Both were recorded
// before the append path kept a chain's tail page pinned: a change in
// where pages are allocated, what they hold, or where a commit falls
// shows up here. (The catalog shrinks as the chains fill, so the meta
// chain never grows here and the bytes alone cannot see a moved
// commit; the count can.)
func TestBuildFromDBFileBytesPinned(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	db := pinnedDB(t)
	cases := []struct {
		pageSize  int
		batch     int
		poolPages int64 // 0: the default pool
		commits   uint64
		want      string
	}{
		{128, 0, 0, 1, "c76dbca0d9305e8e2677fd301e4a9389e98e8d7c63a153dbf85c67550383da76"},
		{128, 16, 0, 96, "c76dbca0d9305e8e2677fd301e4a9389e98e8d7c63a153dbf85c67550383da76"},
		{128, 0, 6, 125, "c76dbca0d9305e8e2677fd301e4a9389e98e8d7c63a153dbf85c67550383da76"},
		{128, 16, 6, 212, "c76dbca0d9305e8e2677fd301e4a9389e98e8d7c63a153dbf85c67550383da76"},
		{4096, 0, 0, 1, "4a8bf9a5da9ab47ef88aa47ffc7c20bfc09286ec9560d914f7b0cdf1bd087cc4"},
		{4096, 16, 0, 96, "4a8bf9a5da9ab47ef88aa47ffc7c20bfc09286ec9560d914f7b0cdf1bd087cc4"},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("page=%d/batch=%d/pool=%dpages", tc.pageSize, tc.batch, tc.poolPages), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "db.qstore")
			opts := Options{PageSize: tc.pageSize, PoolBytes: tc.poolPages * int64(tc.pageSize)}
			if err := BuildFromDB(path, db, opts, tc.batch, nil); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("data file of %d bytes has SHA-256 %s, want %s", len(raw), got, tc.want)
			}
			s, err := Create(filepath.Join(t.TempDir(), "db.qstore"), db.A, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.ingest(db, tc.batch, nil); err != nil {
				t.Fatal(err)
			}
			if got := s.seq - 1; got != tc.commits {
				t.Errorf("ingest committed %d times, want %d", got, tc.commits)
			}
		})
	}
}

// TestIngestFetchesPerPageNotPerTuple is the timing-free work gate of
// the append path: an insert that fits the held tail page costs no
// buffer-pool fetch. It counts fetches (Stats Hits+Misses) for 4 000
// and for 16 000 tuples, through AddTuple and through the ingest loop
// BuildFromDB runs on an open store. The extra tuples may cost at most
// three fetches per extra heap page; a path that fetches the tail per
// tuple costs about 500 per 4 KiB page.
func TestIngestFetchesPerPageNotPerTuple(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	const (
		n           = 256
		maxPerPage  = 3
		smallTuples = 4000
		largeTuples = 16000
	)
	voc := rel.MustVocabulary(rel.RelSym{Name: "E", Arity: 2})
	edges := func(count int) *rel.Structure {
		a := rel.MustStructure(n, voc)
		rng := rand.New(rand.NewSource(1998))
		for a.Rel("E").Len() < count {
			a.MustAdd("E", rng.Intn(n), rng.Intn(n))
		}
		return a
	}
	ways := []struct {
		name string
		fill func(s *Store, a *rel.Structure) error
	}{
		{"AddTuple", func(s *Store, a *rel.Structure) error {
			for _, tu := range a.Rel("E").Tuples() {
				if err := s.AddTuple("E", tu); err != nil {
					return err
				}
			}
			return s.Commit()
		}},
		{"ingest", func(s *Store, a *rel.Structure) error { return s.ingest(unreliable.New(a), 0, nil) }},
	}
	for _, w := range ways {
		t.Run(w.name, func(t *testing.T) {
			var fetches [2]uint64
			var pages [2]uint32
			for i, count := range []int{smallTuples, largeTuples} {
				a := edges(count)
				s, err := Create(filepath.Join(t.TempDir(), "db.qstore"), a, Options{PageSize: 4096})
				if err != nil {
					t.Fatal(err)
				}
				before := s.Stats()
				if err := w.fill(s, a); err != nil {
					s.Close()
					t.Fatal(err)
				}
				after := s.Stats()
				fetches[i] = after.Hits + after.Misses - before.Hits - before.Misses
				pages[i] = s.cat.Rels[0].Pages
				if got := s.Tuples("E"); got != uint64(count) {
					t.Errorf("%d tuples stored, want %d", got, count)
				}
				s.Close()
			}
			per := float64(fetches[1]-fetches[0]) / float64(pages[1]-pages[0])
			t.Logf("%d fetches for %d heap pages, %d for %d: %.2f per extra page",
				fetches[0], pages[0], fetches[1], pages[1], per)
			if per > maxPerPage {
				t.Errorf("%.2f pool fetches per extra heap page, want at most %d", per, maxPerPage)
			}
		})
	}
}

// TestJournalImagesAscendForShuffledDirtySet dirties a store's pages
// in a shuffled order, stops the commit after its journal record is
// durable, and checks that the record's images come out in strictly
// ascending page order and cover every dirtied page.
func TestJournalImagesAscendForShuffledDirtySet(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	defer faultinject.Reset()
	s := buildWide(t, 1<<20)
	defer s.Close()
	pages := s.PageCount()
	order := rand.New(rand.NewSource(7)).Perm(pages)
	s.mu.Lock()
	for _, id := range order {
		fr, err := s.pool.get(uint32(id))
		if err != nil {
			s.mu.Unlock()
			t.Fatal(err)
		}
		s.pool.markDirty(fr)
		s.pool.unpin(fr)
	}
	s.mu.Unlock()
	boom := errors.New("crash window")
	faultinject.Enable(faultinject.SiteStoreCrash, faultinject.Fault{Err: boom, Times: 1})
	if err := s.Commit(); !errors.Is(err, boom) {
		t.Fatalf("commit under crash-window fault: got %v", err)
	}
	raw, err := os.ReadFile(s.journalPath)
	if err != nil {
		t.Fatal(err)
	}
	recs := decodeJournal(raw, s.PageSize())
	if len(recs) != 1 {
		t.Fatalf("journal holds %d records, want 1", len(recs))
	}
	ims := recs[0].images
	if len(ims) != pages {
		t.Fatalf("journal record holds %d images, want all %d dirtied pages", len(ims), pages)
	}
	for i := 1; i < len(ims); i++ {
		if ims[i-1].id >= ims[i].id {
			t.Fatalf("image %d is page %d after page %d: not ascending", i, ims[i].id, ims[i-1].id)
		}
	}
}
