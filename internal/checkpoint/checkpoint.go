// Package checkpoint provides the crash-safe snapshot store behind the
// engines' checkpoint/resume support: an append-only sequence of
// atomic, checksummed snapshot files in a directory.
//
// Durability protocol (per snapshot):
//
//  1. the payload is framed with a magic string, format version,
//     length, and CRC-32C checksum;
//  2. the frame is written to a fresh .tmp file and fsynced;
//  3. the .tmp file is renamed onto its final name ckpt-NNNNNNNN.qckpt
//     (atomic on POSIX) and the directory is fsynced.
//
// A crash in any window leaves either the previous snapshot set intact
// (crash before the rename — at worst an orphaned .tmp file, ignored
// and garbage-collected) or the new snapshot fully committed. Torn or
// silently corrupted files — short writes, bit flips, zero fills — are
// detected by the frame checks on load and rejected with
// ErrCorruptCheckpoint; LoadLatest then falls back to the next older
// snapshot, so one bad file never strands a job. Retention keeps the
// newest KeepLast snapshots precisely so that fallback has somewhere
// to land.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"qrel/internal/faultinject"
)

// ErrCorruptCheckpoint reports a snapshot file that failed the frame
// checks: wrong magic, unsupported version, truncated or oversized
// payload, or checksum mismatch. It is never a panic and never a
// silent acceptance: callers see either a good payload or this error.
var ErrCorruptCheckpoint = errors.New("checkpoint: corrupt or torn snapshot")

// ErrNoCheckpoint reports a store with no readable snapshot at all.
var ErrNoCheckpoint = errors.New("checkpoint: no snapshot")

const (
	// magic opens every snapshot file; version is the format version.
	magic   = "QRELCKPT"
	version = uint32(1)
	// headerSize = magic + version + payload length + CRC-32C.
	headerSize = len(magic) + 4 + 8 + 4
	// maxPayload bounds a snapshot payload (a defense against reading a
	// garbage length from a corrupt header, not a practical limit:
	// estimator states are well under a kilobyte).
	maxPayload = int64(1 << 30)
	// DefaultKeepLast is the retention depth when Options.KeepLast is 0.
	DefaultKeepLast = 3

	snapExt = ".qckpt"
	tmpExt  = ".tmp"
)

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Metrics aggregates checkpoint activity across stores. A serving layer
// shares one Metrics between all job stores and exports it in /statz.
// All methods are safe for concurrent use; the zero value is ready.
type Metrics struct {
	written         atomic.Int64
	resumed         atomic.Int64
	corruptRejected atomic.Int64
	bytesWritten    atomic.Int64
}

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	// Written counts snapshots committed; BytesWritten their total
	// framed size in bytes.
	Written      int64 `json:"written"`
	BytesWritten int64 `json:"bytes_written"`
	// Resumed counts successful LoadLatest calls (each is one run
	// continuing from a snapshot).
	Resumed int64 `json:"resumed"`
	// CorruptRejected counts snapshot files rejected by the frame
	// checks.
	CorruptRejected int64 `json:"corrupt_rejected"`
}

// Snapshot reads the counters. A nil *Metrics reads as zero.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	return Snapshot{
		Written:         m.written.Load(),
		BytesWritten:    m.bytesWritten.Load(),
		Resumed:         m.resumed.Load(),
		CorruptRejected: m.corruptRejected.Load(),
	}
}

func (m *Metrics) addWritten(bytes int64) {
	if m != nil {
		m.written.Add(1)
		m.bytesWritten.Add(bytes)
	}
}

func (m *Metrics) addResumed() {
	if m != nil {
		m.resumed.Add(1)
	}
}

func (m *Metrics) addCorrupt() {
	if m != nil {
		m.corruptRejected.Add(1)
	}
}

// Options tunes a Store; the zero value is production-safe.
type Options struct {
	// KeepLast is the number of newest snapshots retained
	// (default DefaultKeepLast). At least one is always kept.
	KeepLast int
	// Metrics, when non-nil, receives this store's counters.
	Metrics *Metrics
}

// Store is an atomic, checksummed snapshot store over one directory.
// One Store belongs to one logical job; concurrent use by multiple
// goroutines is safe, but two processes must not share a directory.
type Store struct {
	dir     string
	keep    int
	metrics *Metrics

	mu  sync.Mutex
	seq uint64 // highest sequence number in use
	// seqs lists the committed snapshots, ascending: scanned once by
	// Open and kept by Save, so a commit reads no directory.
	seqs []uint64
	// orphans are the temp files failed commits left behind; the next
	// successful Save removes them.
	orphans []string
}

// Open creates (if needed) and scans a snapshot directory, removing
// the temp files of commits a crash cut short: those numbered at or
// below the newest committed snapshot. A higher-numbered temp file may
// be a commit in flight — a reader opens the directory while its
// writer saves — so it stays; the writer's next Save reuses its name.
func Open(dir string, opts Options) (*Store, error) {
	if opts.KeepLast <= 0 {
		opts.KeepLast = DefaultKeepLast
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("checkpoint: creating %s: %w", dir, err)
	}
	s := &Store{dir: dir, keep: opts.KeepLast, metrics: opts.Metrics}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading %s: %w", s.dir, err)
	}
	s.seqs = committed(entries)
	if len(s.seqs) > 0 {
		s.seq = s.seqs[len(s.seqs)-1]
	}
	for _, e := range entries {
		if seq, ok := parseName(e.Name(), snapExt+tmpExt); ok && seq <= s.seq {
			_ = os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// name renders the snapshot filename for a sequence number.
func (s *Store) name(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("ckpt-%016d%s", seq, snapExt))
}

// parseName returns the sequence number of a file named
// ckpt-NNNNNNNNNNNNNNNN followed by ext.
func parseName(name, ext string) (uint64, bool) {
	// Sscanf matches a prefix, so an orphaned "ckpt-N.qckpt.tmp" left
	// by a crashed commit would otherwise parse as committed snapshot
	// N — and a later load would try to open a file that was never
	// renamed into place.
	if !strings.HasSuffix(name, ext) {
		return 0, false
	}
	var seq uint64
	n, err := fmt.Sscanf(strings.TrimSuffix(name, ext), "ckpt-%016d", &seq)
	return seq, n == 1 && err == nil
}

// sequences lists the committed snapshot sequence numbers on disk,
// ascending.
func (s *Store) sequences() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading %s: %w", s.dir, err)
	}
	return committed(entries), nil
}

// committed lists the committed snapshot sequence numbers among a
// directory's entries, ascending. Files that do not match the naming
// scheme (orphaned .tmp files included) are ignored.
func committed(entries []os.DirEntry) []uint64 {
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseName(e.Name(), snapExt); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

// encode frames a payload: magic | version | length | CRC-32C | payload.
func encode(payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	copy(buf, magic)
	off := len(magic)
	binary.BigEndian.PutUint32(buf[off:], version)
	off += 4
	binary.BigEndian.PutUint64(buf[off:], uint64(len(payload)))
	off += 8
	binary.BigEndian.PutUint32(buf[off:], crc32.Checksum(payload, castagnoli))
	off += 4
	copy(buf[off:], payload)
	return buf
}

// decode verifies a frame and returns the payload. Every failure mode
// wraps ErrCorruptCheckpoint.
func decode(data []byte) ([]byte, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, below the %d-byte header", ErrCorruptCheckpoint, len(data), headerSize)
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorruptCheckpoint)
	}
	off := len(magic)
	if v := binary.BigEndian.Uint32(data[off:]); v != version {
		return nil, fmt.Errorf("%w: unsupported format version %d", ErrCorruptCheckpoint, v)
	}
	off += 4
	n := binary.BigEndian.Uint64(data[off:])
	off += 8
	if n > uint64(maxPayload) || uint64(len(data)-headerSize) != n {
		return nil, fmt.Errorf("%w: payload length %d does not match %d file bytes", ErrCorruptCheckpoint, n, len(data)-headerSize)
	}
	want := binary.BigEndian.Uint32(data[off:])
	off += 4
	payload := data[off:]
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (have %08x, want %08x)", ErrCorruptCheckpoint, got, want)
	}
	return payload, nil
}

// EncodeFrame frames a payload with the snapshot wire format — the
// same magic/version/length/CRC-32C header the on-disk store writes.
// It is the codec used for shipping checkpoints between processes
// (coordinator ↔ replica): a frame produced here round-trips through
// DecodeFrame, and a frame read from a store file decodes identically.
func EncodeFrame(payload []byte) []byte { return encode(payload) }

// DecodeFrame verifies a shipped frame and returns its payload. Every
// failure mode — truncation, bad magic, version or length mismatch,
// checksum failure — wraps ErrCorruptCheckpoint; it never panics on
// arbitrary input.
func DecodeFrame(data []byte) ([]byte, error) { return decode(data) }

// Save commits one snapshot: write-temp, fsync, rename, fsync-dir,
// then prune beyond the retention depth. On error nothing newer than
// the previous snapshot is visible.
func (s *Store) Save(payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	final := s.name(s.seq)
	tmp := final + tmpExt
	frame := encode(payload)

	if err := faultinject.Hit(faultinject.SiteCkptShortWrite); err != nil {
		// Simulated torn write: half the frame reaches the disk but the
		// commit protocol continues — load must catch it.
		frame = frame[:len(frame)/2]
	}
	if err := writeFileSync(tmp, frame); err != nil {
		s.orphans = append(s.orphans, tmp)
		return fmt.Errorf("checkpoint: writing %s: %w", tmp, err)
	}
	if err := faultinject.Hit(faultinject.SiteCkptBitFlip); err != nil {
		// Simulated media corruption: flip one payload byte in place.
		frame[len(frame)-1] ^= 0x40
		if werr := writeFileSync(tmp, frame); werr != nil {
			s.orphans = append(s.orphans, tmp)
			return fmt.Errorf("checkpoint: writing %s: %w", tmp, werr)
		}
	}
	if err := faultinject.Hit(faultinject.SiteCkptCrash); err != nil {
		// Simulated crash between write and rename: the temp file stays,
		// the snapshot is never committed.
		s.orphans = append(s.orphans, tmp)
		return fmt.Errorf("checkpoint: crashed before rename of %s: %w", tmp, err)
	}
	if err := faultinject.Hit(faultinject.SiteCkptRename); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("checkpoint: renaming %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("checkpoint: renaming %s: %w", tmp, err)
	}
	syncDir(s.dir)
	s.metrics.addWritten(int64(len(frame)))
	s.seqs = append(s.seqs, s.seq)
	s.pruneLocked()
	return nil
}

// LoadLatest returns the payload of the newest readable snapshot.
// Corrupt or torn files are rejected (counted in Metrics) and the scan
// falls back to the next older snapshot; the returned error is
// ErrNoCheckpoint when the directory has no snapshot at all, or wraps
// ErrCorruptCheckpoint when snapshots exist but every one is bad.
func (s *Store) LoadLatest() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seqs, err := s.sequences()
	if err != nil {
		return nil, err
	}
	var lastErr error
	for i := len(seqs) - 1; i >= 0; i-- {
		data, err := os.ReadFile(s.name(seqs[i]))
		if err != nil {
			lastErr = err
			continue
		}
		payload, err := decode(data)
		if err != nil {
			s.metrics.addCorrupt()
			lastErr = fmt.Errorf("%s: %w", s.name(seqs[i]), err)
			continue
		}
		s.metrics.addResumed()
		return payload, nil
	}
	if lastErr != nil {
		return nil, lastErr
	}
	return nil, ErrNoCheckpoint
}

// pruneLocked removes the snapshots beyond the retention depth and the
// temp files of failed commits. It works from the in-memory sequence
// list alone.
func (s *Store) pruneLocked() {
	for len(s.seqs) > s.keep {
		_ = os.Remove(s.name(s.seqs[0]))
		s.seqs = s.seqs[1:]
	}
	for _, tmp := range s.orphans {
		_ = os.Remove(tmp)
	}
	s.orphans = nil
}

// WriteFileAtomic writes data to path with the same write-temp + fsync
// + rename + fsync-dir protocol the snapshot files use. The job journal
// uses it for its metadata files.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + tmpExt
	if err := writeFileSync(tmp, data); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// writeFileSync writes data to a fresh file and fsyncs it.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a committed rename survives power loss.
// Best effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
