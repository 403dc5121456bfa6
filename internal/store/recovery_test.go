package store

import (
	"bytes"
	"errors"
	"math/big"
	"os"
	"path/filepath"
	"testing"

	"qrel/internal/faultinject"
	"qrel/internal/rel"
	"qrel/internal/testutil"
)

// buildBase writes a committed store and returns its data-file bytes.
func buildBase(t *testing.T, path string) []byte {
	t.Helper()
	db := testDB(t, 16, 4)
	if err := BuildFromDB(path, db, Options{PageSize: 256}, 0, nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// stageBatch opens the store at path, buffers a batch of mutations,
// and arms-then-commits so the commit dies in the crash window: the
// journal holds the complete record, the data file is untouched. It
// returns the journal record bytes.
func stageBatch(t *testing.T, path string) []byte {
	t.Helper()
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 40; i++ {
		if err := s.AddTuple("E", rel.Tuple{i % 16, (i * 3) % 16}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetError("E", rel.Tuple{0, 0}, big.NewRat(1, 7)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("crash window")
	faultinject.Enable(faultinject.SiteStoreCrash, faultinject.Fault{Err: boom, Times: 1})
	defer faultinject.Reset()
	if err := s.Commit(); !errors.Is(err, boom) {
		t.Fatalf("commit under crash-window fault: got %v", err)
	}
	rec, err := os.ReadFile(path + ".journal")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) == 0 {
		t.Fatal("crash-window commit left an empty journal")
	}
	return rec
}

// TestCrashAtEveryJournalOffset is the crash-safety property test:
// for every truncation offset of the journal record, reopening the
// store yields a state byte-identical to either the pre-commit file
// (torn record: clean rollback) or the fully committed file (complete
// record: replay) — never a blend — and the database loads.
func TestCrashAtEveryJournalOffset(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	dir := t.TempDir()
	base := filepath.Join(dir, "base.qstore")
	pre := buildBase(t, base)
	rec := stageBatch(t, base)

	// Compute the committed ("post") state by letting recovery replay
	// the full record once.
	postPath := filepath.Join(dir, "post.qstore")
	if err := os.WriteFile(postPath, pre, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(postPath+".journal", rec, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(postPath, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Verify(); err != nil {
		t.Fatalf("replayed store fails verification: %v", err)
	}
	s.Close()
	post, err := os.ReadFile(postPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(pre, post) {
		t.Fatal("replay did not change the data file; the property test would be vacuous")
	}

	victim := filepath.Join(dir, "victim.qstore")
	for k := 0; k <= len(rec); k++ {
		if err := os.WriteFile(victim, pre, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(victim+".journal", rec[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(victim, Options{})
		if err != nil {
			t.Fatalf("offset %d: reopen failed: %v", k, err)
		}
		if _, err := s.LoadDB(); err != nil {
			t.Fatalf("offset %d: recovered store does not load: %v", k, err)
		}
		s.Close()
		got, err := os.ReadFile(victim)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case k < len(rec):
			if !bytes.Equal(got, pre) {
				t.Fatalf("offset %d: torn journal did not roll back to the pre-commit state", k)
			}
		default:
			if !bytes.Equal(got, post) {
				t.Fatalf("offset %d: complete journal did not replay to the committed state", k)
			}
		}
		// Recovery must consume the journal either way.
		if j, err := os.ReadFile(victim + ".journal"); err != nil || len(j) != 0 {
			t.Fatalf("offset %d: journal not truncated after recovery (len %d, err %v)", k, len(j), err)
		}
	}
}

// TestRecoveryRepairsTornPageApply simulates a crash mid-apply: the
// journal is complete but the data file holds garbage half-pages.
// Replay must repair every one of them.
func TestRecoveryRepairsTornPageApply(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	dir := t.TempDir()
	base := filepath.Join(dir, "base.qstore")
	pre := buildBase(t, base)
	rec := stageBatch(t, base)

	// Reference committed state.
	postPath := filepath.Join(dir, "post.qstore")
	os.WriteFile(postPath, pre, 0o644)
	os.WriteFile(postPath+".journal", rec, 0o644)
	s, err := Open(postPath, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	post, _ := os.ReadFile(postPath)

	// Victim: full journal, and the data file torn as if the apply loop
	// died halfway through a page write.
	torn := append([]byte(nil), pre...)
	images := decodeJournal(rec, 256)
	if len(images) != 1 {
		t.Fatalf("expected one journal record, got %d", len(images))
	}
	for _, im := range images[0].images {
		off := int(im.id) * 256
		for len(torn) < off+256 {
			torn = append(torn, 0)
		}
		copy(torn[off:off+128], im.data[:128]) // half the new page, then garbage
		for i := off + 128; i < off+256; i++ {
			torn[i] = 0xAA
		}
	}
	victim := filepath.Join(dir, "victim.qstore")
	os.WriteFile(victim, torn, 0o644)
	os.WriteFile(victim+".journal", rec, 0o644)
	s, err = Open(victim, Options{})
	if err != nil {
		t.Fatalf("reopen over torn pages: %v", err)
	}
	if _, err := s.Verify(); err != nil {
		t.Fatalf("verify after repair: %v", err)
	}
	s.Close()
	got, _ := os.ReadFile(victim)
	if !bytes.Equal(got, post) {
		t.Fatal("recovery did not repair the torn page apply to the committed state")
	}
}

// TestCommitFaultSites drives each commit-path fault site and checks
// the recovery outcome it advertises: journal-tear rolls back,
// crash-window and short-write replay forward.
func TestCommitFaultSites(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	boom := errors.New("injected")
	cases := []struct {
		site       string
		wantCommit bool // state after reopen: true = batch applied
	}{
		{faultinject.SiteStoreJournalTear, false},
		{faultinject.SiteStoreCrash, true},
		{faultinject.SiteStoreShortWrite, true},
	}
	for _, tc := range cases {
		t.Run(tc.site, func(t *testing.T) {
			defer faultinject.Reset()
			path := filepath.Join(t.TempDir(), "db.qstore")
			buildBase(t, path)
			s, err := Open(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			preTuples := s.Tuples("E")
			for i := 0; i < 10; i++ {
				if err := s.AddTuple("E", rel.Tuple{i, i}); err != nil {
					t.Fatal(err)
				}
			}
			faultinject.Enable(tc.site, faultinject.Fault{Err: boom, Times: 1})
			if err := s.Commit(); !errors.Is(err, boom) {
				t.Fatalf("commit under %s: got %v, want injected error", tc.site, err)
			}
			s.Close() // crash: abandon in-memory state
			faultinject.Reset()

			r, err := Open(path, Options{})
			if err != nil {
				t.Fatalf("reopen after %s: %v", tc.site, err)
			}
			defer r.Close()
			if _, err := r.Verify(); err != nil {
				t.Fatalf("verify after %s: %v", tc.site, err)
			}
			want := preTuples
			if tc.wantCommit {
				want += 10
			}
			if got := r.Tuples("E"); got != want {
				t.Errorf("after %s: %d tuples, want %d", tc.site, got, want)
			}
		})
	}
}

// TestCommitRetryAfterTear: a failed commit attempt must not poison
// the journal for the retry.
func TestCommitRetryAfterTear(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	defer faultinject.Reset()
	boom := errors.New("injected")
	path := filepath.Join(t.TempDir(), "db.qstore")
	buildBase(t, path)
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pre := s.Tuples("E")
	for i := 0; i < 5; i++ {
		if err := s.AddTuple("E", rel.Tuple{i, (i + 1) % 16}); err != nil {
			t.Fatal(err)
		}
	}
	faultinject.Enable(faultinject.SiteStoreJournalTear, faultinject.Fault{Err: boom, Times: 1})
	if err := s.Commit(); !errors.Is(err, boom) {
		t.Fatalf("first commit: got %v", err)
	}
	if err := s.Commit(); err != nil {
		t.Fatalf("retry commit: %v", err)
	}
	s.Close()
	r, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Tuples("E"); got != pre+5 {
		t.Errorf("after retry: %d tuples, want %d", got, pre+5)
	}
	if _, err := r.Verify(); err != nil {
		t.Errorf("verify after retry: %v", err)
	}
}

// TestCreateClearsStaleJournal: Create at a path where a previous
// store incarnation crashed mid-commit must not let the dead store's
// journal replay into the fresh file — that would graft the old
// store's pages (and later, duplicate chains) onto the new one.
func TestCreateClearsStaleJournal(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "db.qstore")
	buildBase(t, path)
	stageBatch(t, path) // leaves a complete, durable record in the journal
	db := testDB(t, 16, 4)
	s, err := Create(path, db.A, Options{PageSize: 256})
	if err != nil {
		t.Fatalf("create over crashed store: %v", err)
	}
	defer s.Close()
	if got := s.Tuples("E"); got != 0 {
		t.Errorf("fresh store holds %d tuples in E; the stale journal replayed", got)
	}
	if _, err := s.Verify(); err != nil {
		t.Errorf("verify fresh store: %v", err)
	}
	if j, err := os.ReadFile(path + ".journal"); err == nil && len(j) != 0 {
		t.Errorf("stale journal survived Create (%d bytes)", len(j))
	}
}

// TestCommitRepairsBeforeTruncatingJournal: after a commit dies
// mid-apply (journal record durable, data page torn), the next commit
// must re-apply that record before truncating the journal. If it
// truncated first and its own append then tore, a crash would leave a
// torn data page with an empty journal — unrecoverable.
func TestCommitRepairsBeforeTruncatingJournal(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	defer faultinject.Reset()
	boom := errors.New("injected")
	path := filepath.Join(t.TempDir(), "db.qstore")
	buildBase(t, path)
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pre := s.Tuples("E")
	for i := 0; i < 10; i++ {
		if err := s.AddTuple("E", rel.Tuple{i, i}); err != nil {
			t.Fatal(err)
		}
	}
	// First commit: the journal lands durably, then the page apply tears.
	faultinject.Enable(faultinject.SiteStoreShortWrite, faultinject.Fault{Err: boom, Times: 1})
	if err := s.Commit(); !errors.Is(err, boom) {
		t.Fatalf("commit under short-write: got %v", err)
	}
	// Second commit: the journal append itself tears. The durable first
	// record must have healed the torn page before it was truncated.
	faultinject.Reset()
	faultinject.Enable(faultinject.SiteStoreJournalTear, faultinject.Fault{Err: boom, Times: 1})
	if err := s.Commit(); !errors.Is(err, boom) {
		t.Fatalf("commit under journal-tear: got %v", err)
	}
	s.Close() // crash: abandon in-memory state
	faultinject.Reset()

	r, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen after tear-after-short-write: %v", err)
	}
	defer r.Close()
	if _, err := r.Verify(); err != nil {
		t.Fatalf("verify after repair: %v", err)
	}
	if got := r.Tuples("E"); got != pre+10 {
		t.Errorf("after repair: %d tuples, want %d", got, pre+10)
	}
}

// TestRecoveryRefusesForeignJournal: a journal whose page size does
// not match the data file's meta page belongs to another store;
// recovery must refuse rather than replay at wrong offsets.
func TestRecoveryRefusesForeignJournal(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	dir := t.TempDir()
	small := filepath.Join(dir, "small.qstore")
	buildBase(t, small) // page size 256
	rec := stageBatch(t, small)

	victim := filepath.Join(dir, "victim.qstore")
	if err := BuildFromDB(victim, testDB(t, 16, 4), Options{PageSize: 512}, 0, nil); err != nil {
		t.Fatal(err)
	}
	pre, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim+".journal", rec, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(victim, Options{}); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("open with foreign journal: got %v, want ErrCorruptPage", err)
	}
	got, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pre) {
		t.Error("foreign journal was replayed into the data file")
	}
}

// TestAppendRecordOversizeLeavesNoOrphan: a record too large for even
// an empty page must be rejected before a page is allocated — an
// admitted orphan would be journaled at the next commit and inflate
// the file as an unreferenced page.
func TestAppendRecordOversizeLeavesNoOrphan(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	path := filepath.Join(t.TempDir(), "db.qstore")
	buildBase(t, path)
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	prePages := s.PageCount()
	rec := make([]byte, s.PageSize()) // cannot fit any page
	s.mu.Lock()
	_, err = s.appendLocked(s.heapChain(s.relIdx["E"]), 1, func([]byte) ([]byte, bool, error) { return rec, true, nil })
	s.mu.Unlock()
	if err == nil {
		t.Fatal("oversize record accepted")
	}
	if got := s.PageCount(); got != prePages {
		t.Errorf("oversize record allocated a page: %d pages, want %d", got, prePages)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Verify(); err != nil {
		t.Errorf("verify after rejected record: %v", err)
	}
}

// TestBitFlipFaultSite arms the read-path flip: every fetch that
// fires the site must surface ErrCorruptPage, and once the fault is
// gone the intact disk state serves again (after a fresh open —
// quarantine is per-session and deliberately sticky).
func TestBitFlipFaultSite(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	defer faultinject.Reset()
	path := filepath.Join(t.TempDir(), "db.qstore")
	buildBase(t, path)
	boom := errors.New("flip")
	faultinject.Enable(faultinject.SiteStoreBitFlip, faultinject.Fault{Err: boom, Times: 1})
	s, err := Open(path, Options{})
	if err == nil {
		// The flip may land on a data page instead of the meta chain.
		_, err = s.LoadDB()
		s.Close()
	}
	if !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("with bit-flip armed: got %v, want ErrCorruptPage", err)
	}
	faultinject.Reset()
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen with fault cleared: %v", err)
	}
	defer s2.Close()
	if _, err := s2.LoadDB(); err != nil {
		t.Errorf("load with fault cleared: %v", err)
	}
}
