package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qrel/internal/faultinject"
)

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := mustOpen(t, Options{})
	for i := 0; i < 3; i++ {
		if err := s.Save([]byte(fmt.Sprintf("state-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "state-2" {
		t.Fatalf("LoadLatest = %q, want state-2", got)
	}
}

func TestLoadEmptyStore(t *testing.T) {
	s := mustOpen(t, Options{})
	if _, err := s.LoadLatest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty store: err = %v, want ErrNoCheckpoint", err)
	}
}

func TestRetentionKeepsLastN(t *testing.T) {
	s := mustOpen(t, Options{KeepLast: 2})
	for i := 0; i < 5; i++ {
		if err := s.Save([]byte(fmt.Sprintf("s%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := s.sequences()
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 {
		t.Fatalf("retention kept %d snapshots, want 2", len(seqs))
	}
	got, err := s.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "s4" {
		t.Fatalf("LoadLatest = %q, want s4", got)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save([]byte("one")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Save([]byte("two")); err != nil {
		t.Fatal(err)
	}
	got, err := s2.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "two" {
		t.Fatalf("LoadLatest after reopen = %q, want two", got)
	}
}

// newestSnapshot returns the path of the newest committed snapshot.
func newestSnapshot(t *testing.T, s *Store) string {
	t.Helper()
	seqs, err := s.sequences()
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) == 0 {
		t.Fatal("no snapshots")
	}
	return s.name(seqs[len(seqs)-1])
}

// TestCorruptSnapshotsRejected is the table-driven torn/corrupt
// handling test: every mutilation of a committed snapshot must surface
// as ErrCorruptCheckpoint — never a panic, never silent acceptance —
// and an older good snapshot must be served instead when one exists.
func TestCorruptSnapshotsRejected(t *testing.T) {
	corruptions := []struct {
		name string
		mut  func(t *testing.T, path string)
	}{
		{"truncate-mid-payload", func(t *testing.T, path string) {
			data := readFile(t, path)
			writeFile(t, path, data[:len(data)-3])
		}},
		{"truncate-into-header", func(t *testing.T, path string) {
			writeFile(t, path, readFile(t, path)[:headerSize-2])
		}},
		{"truncate-to-empty", func(t *testing.T, path string) {
			writeFile(t, path, nil)
		}},
		{"bit-flip-payload", func(t *testing.T, path string) {
			data := readFile(t, path)
			data[len(data)-1] ^= 0x01
			writeFile(t, path, data)
		}},
		{"bit-flip-magic", func(t *testing.T, path string) {
			data := readFile(t, path)
			data[0] ^= 0x01
			writeFile(t, path, data)
		}},
		{"bit-flip-crc", func(t *testing.T, path string) {
			data := readFile(t, path)
			data[len(magic)+4+8] ^= 0x80
			writeFile(t, path, data)
		}},
		{"zero-fill", func(t *testing.T, path string) {
			data := readFile(t, path)
			writeFile(t, path, make([]byte, len(data)))
		}},
		{"length-overflow", func(t *testing.T, path string) {
			data := readFile(t, path)
			for i := 0; i < 8; i++ {
				data[len(magic)+4+i] = 0xff
			}
			writeFile(t, path, data)
		}},
		{"extra-trailing-bytes", func(t *testing.T, path string) {
			writeFile(t, path, append(readFile(t, path), 0xde, 0xad))
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			metrics := &Metrics{}
			s, err := Open(t.TempDir(), Options{Metrics: metrics})
			if err != nil {
				t.Fatal(err)
			}
			// Only snapshot corrupted: the typed error must surface.
			if err := s.Save([]byte("only")); err != nil {
				t.Fatal(err)
			}
			tc.mut(t, newestSnapshot(t, s))
			if _, err := s.LoadLatest(); !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("LoadLatest on corrupt-only store: err = %v, want ErrCorruptCheckpoint", err)
			}
			// With an older good snapshot: fall back to it.
			s2, err := Open(t.TempDir(), Options{Metrics: metrics})
			if err != nil {
				t.Fatal(err)
			}
			if err := s2.Save([]byte("good")); err != nil {
				t.Fatal(err)
			}
			if err := s2.Save([]byte("bad")); err != nil {
				t.Fatal(err)
			}
			tc.mut(t, newestSnapshot(t, s2))
			got, err := s2.LoadLatest()
			if err != nil {
				t.Fatalf("LoadLatest with good fallback: %v", err)
			}
			if string(got) != "good" {
				t.Fatalf("LoadLatest = %q, want the older good snapshot", got)
			}
			if metrics.Snapshot().CorruptRejected < 2 {
				t.Fatalf("CorruptRejected = %d, want >= 2", metrics.Snapshot().CorruptRejected)
			}
		})
	}
}

func TestInjectedShortWriteCommitsTornSnapshot(t *testing.T) {
	defer faultinject.Reset()
	s := mustOpen(t, Options{})
	if err := s.Save([]byte("good")); err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(faultinject.SiteCkptShortWrite, faultinject.Fault{Err: errors.New("torn"), Times: 1})
	if err := s.Save([]byte("torn-snapshot-payload")); err != nil {
		t.Fatalf("short write should commit silently (the fault models lost sectors): %v", err)
	}
	got, err := s.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "good" {
		t.Fatalf("LoadLatest = %q, want fallback to the pre-fault snapshot", got)
	}
}

func TestInjectedBitFlipRejectedOnLoad(t *testing.T) {
	defer faultinject.Reset()
	metrics := &Metrics{}
	s, err := Open(t.TempDir(), Options{Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save([]byte("good")); err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(faultinject.SiteCkptBitFlip, faultinject.Fault{Err: errors.New("flip"), Times: 1})
	if err := s.Save([]byte("flipped")); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "good" {
		t.Fatalf("LoadLatest = %q, want fallback past the bit-flipped snapshot", got)
	}
	if metrics.Snapshot().CorruptRejected == 0 {
		t.Fatal("bit-flipped snapshot was not counted as corrupt")
	}
}

func TestInjectedRenameFailureKeepsPreviousSnapshot(t *testing.T) {
	defer faultinject.Reset()
	s := mustOpen(t, Options{})
	if err := s.Save([]byte("good")); err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(faultinject.SiteCkptRename, faultinject.Fault{Err: errors.New("EIO"), Times: 1})
	if err := s.Save([]byte("never-committed")); err == nil {
		t.Fatal("Save with failing rename returned nil")
	}
	got, err := s.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "good" {
		t.Fatalf("LoadLatest = %q, want the pre-failure snapshot", got)
	}
}

func TestInjectedCrashWindowLeavesTmpAndRecovers(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save([]byte("good")); err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(faultinject.SiteCkptCrash, faultinject.Fault{Err: errors.New("SIGKILL"), Times: 1})
	if err := s.Save([]byte("in-the-window")); err == nil {
		t.Fatal("Save in the crash window returned nil")
	}
	// The orphaned temp file must not confuse a restarted store.
	if n := countFiles(t, dir, tmpExt); n != 1 {
		t.Fatalf("crash window left %d temp files, want 1", n)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "good" {
		t.Fatalf("LoadLatest after crash = %q, want good", got)
	}
	if err := s2.Save([]byte("after-restart")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s2.LoadLatest(); string(got) != "after-restart" {
		t.Fatalf("LoadLatest = %q, want after-restart", got)
	}
	// The successful save garbage-collects the orphan.
	if n := countFiles(t, dir, tmpExt); n != 0 {
		t.Fatalf("%d orphaned temp files survived a successful save", n)
	}
}

// TestSaveAfterCrashWindowKeepsRetention: a store that lives on after
// a crash-window failure cleans up by itself — the next successful Save
// removes the orphaned temp file, and retention, kept from the
// in-memory sequence list, leaves exactly KeepLast snapshots on disk.
func TestSaveAfterCrashWindowKeepsRetention(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s, err := Open(dir, Options{KeepLast: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Save([]byte(fmt.Sprintf("s%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	faultinject.Enable(faultinject.SiteCkptCrash, faultinject.Fault{Err: errors.New("SIGKILL"), Times: 1})
	if err := s.Save([]byte("in-the-window")); err == nil {
		t.Fatal("Save in the crash window returned nil")
	}
	if n := countFiles(t, dir, tmpExt); n != 1 {
		t.Fatalf("crash window left %d temp files, want 1", n)
	}
	if err := s.Save([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if n := countFiles(t, dir, tmpExt); n != 0 {
		t.Fatalf("%d temp files survived the next successful save", n)
	}
	if n := countFiles(t, dir, snapExt); n != 2 {
		t.Fatalf("%d snapshots on disk, want KeepLast = 2", n)
	}
	if got, err := s.LoadLatest(); err != nil || string(got) != "after" {
		t.Fatalf("LoadLatest = %q, %v, want after", got, err)
	}
}

// TestOpenLeavesInFlightCommit: a reader may open the directory while
// its writer is between writing a temp file and renaming it. Open
// sweeps only the temp files at or below the newest committed
// snapshot, so the writer's commit survives the reader and lands.
func TestOpenLeavesInFlightCommit(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := w.Save([]byte(fmt.Sprintf("s%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	stale := w.name(1) + tmpExt // an orphan below the head
	if err := os.WriteFile(stale, []byte("x"), 0o666); err != nil {
		t.Fatal(err)
	}
	// Hold the writer in its crash window: temp file written, not renamed.
	faultinject.Enable(faultinject.SiteCkptCrash, faultinject.Fault{Delay: 300 * time.Millisecond, Times: 1})
	done := make(chan error, 1)
	go func() { done <- w.Save([]byte("in-flight")) }()
	inFlight := w.name(3) + tmpExt
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err := os.Stat(inFlight); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the writer's temp file never appeared")
		}
	}
	if _, err := Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("Open left the orphan below the head: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("the writer's Save failed after a reader opened the store: %v", err)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := r.LoadLatest(); err != nil || string(got) != "in-flight" {
		t.Fatalf("LoadLatest = %q, %v, want in-flight", got, err)
	}
}

// TestReopenIgnoresOrphanTmp: a crash during the very first Save
// leaves an orphaned temp file and no committed snapshot. The
// reopened store must not parse the orphan's "ckpt-N" prefix as a
// committed sequence number — LoadLatest reports ErrNoCheckpoint,
// and the next successful Save reclaims the sequence slot and
// garbage-collects the orphan.
func TestReopenIgnoresOrphanTmp(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(faultinject.SiteCkptCrash, faultinject.Fault{Err: errors.New("SIGKILL"), Times: 1})
	if err := s.Save([]byte("never-committed")); err == nil {
		t.Fatal("Save in the crash window returned nil")
	}
	faultinject.Reset()
	if n := countFiles(t, dir, tmpExt); n != 1 {
		t.Fatalf("crash window left %d temp files, want 1", n)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.LoadLatest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("LoadLatest with only an orphan tmp = %v, want ErrNoCheckpoint", err)
	}
	if err := s2.Save([]byte("committed")); err != nil {
		t.Fatal(err)
	}
	if got, err := s2.LoadLatest(); err != nil || string(got) != "committed" {
		t.Fatalf("LoadLatest = %q, %v, want committed", got, err)
	}
	if n := countFiles(t, dir, tmpExt); n != 0 {
		t.Fatalf("%d orphaned temp files survived a successful save", n)
	}
}

func TestMetricsCounters(t *testing.T) {
	metrics := &Metrics{}
	s, err := Open(t.TempDir(), Options{Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadLatest(); err != nil {
		t.Fatal(err)
	}
	snap := metrics.Snapshot()
	if snap.Written != 1 || snap.Resumed != 1 {
		t.Fatalf("metrics = %+v, want Written=1 Resumed=1", snap)
	}
	if snap.BytesWritten <= int64(len("abc")) {
		t.Fatalf("BytesWritten = %d, want > payload size (frame overhead)", snap.BytesWritten)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.json")
	if err := WriteFileAtomic(path, []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte(`{"a":2}`)); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); string(got) != `{"a":2}` {
		t.Fatalf("content = %s", got)
	}
	if n := countFiles(t, dir, tmpExt); n != 0 {
		t.Fatalf("%d temp files left behind", n)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
}

func countFiles(t *testing.T, dir, suffix string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), suffix) {
			n++
		}
	}
	return n
}
