package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"slices"

	"qrel/internal/faultinject"
)

// The write-ahead intent journal sits next to the data file as
// <path>.journal. A commit appends one record holding full images of
// every dirty page, fsyncs it, applies the images to the data file,
// fsyncs that, and truncates the journal. Recovery on open replays
// every complete record in order (full-page images are idempotent)
// and discards a torn tail — so a SIGKILL at any byte offset yields
// either the whole commit or a clean rollback, never a torn page.

const (
	journalMagic      = "QRELJRN1"
	journalHeaderSize = 8 + 8 + 4 + 4 + 4 // magic, seq, npages, pageSize, payload crc
)

type pageImage struct {
	id   uint32
	data []byte
}

// encodeJournalRecord appends to dst the record framing a commit:
// header then npages images of (pageID u32, page bytes). The CRC
// covers the payload only; the fixed-width header fields are validated
// structurally.
func encodeJournalRecord(dst []byte, seq uint64, pageSize int, images []pageImage) []byte {
	start := len(dst)
	dst = slices.Grow(dst, journalHeaderSize+len(images)*(4+pageSize))
	dst = append(dst, journalMagic...)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(images)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(pageSize))
	dst = binary.LittleEndian.AppendUint32(dst, 0) // payload crc, stamped below
	for _, im := range images {
		dst = binary.LittleEndian.AppendUint32(dst, im.id)
		dst = append(dst, im.data...)
	}
	rec := dst[start:]
	binary.LittleEndian.PutUint32(rec[24:], crc32.Checksum(rec[journalHeaderSize:], castagnoli))
	return dst
}

// decodeJournal walks the journal bytes and returns every complete,
// checksummed record. Anything after the last complete record — a
// torn tail from a crash mid-append, or garbage — is ignored: that
// commit never happened.
func decodeJournal(data []byte, pageSize int) []journalRecord {
	var recs []journalRecord
	for len(data) >= journalHeaderSize {
		if string(data[:8]) != journalMagic {
			break
		}
		seq := binary.LittleEndian.Uint64(data[8:])
		npages := int(binary.LittleEndian.Uint32(data[16:]))
		recPageSize := int(binary.LittleEndian.Uint32(data[20:]))
		wantCRC := binary.LittleEndian.Uint32(data[24:])
		if recPageSize != pageSize || npages < 0 || npages > 1<<20 {
			break
		}
		payloadLen := npages * (4 + pageSize)
		if len(data) < journalHeaderSize+payloadLen {
			break // torn tail
		}
		payload := data[journalHeaderSize : journalHeaderSize+payloadLen]
		if crc32.Checksum(payload, castagnoli) != wantCRC {
			break
		}
		rec := journalRecord{seq: seq}
		for i := 0; i < npages; i++ {
			off := i * (4 + pageSize)
			rec.images = append(rec.images, pageImage{
				id:   binary.LittleEndian.Uint32(payload[off:]),
				data: payload[off+4 : off+4+pageSize],
			})
		}
		recs = append(recs, rec)
		data = data[journalHeaderSize+payloadLen:]
	}
	return recs
}

type journalRecord struct {
	seq    uint64
	images []pageImage
}

// appendJournal durably appends rec to the journal file. The
// store/journal-tear fault site leaves a torn prefix on disk — the
// crash the decoder's torn-tail handling exists for.
func appendJournal(path string, rec []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if ferr := faultinject.Hit(faultinject.SiteStoreJournalTear); ferr != nil {
		f.Write(rec[:len(rec)/2])
		f.Sync()
		return fmt.Errorf("store: journal append: %w", ferr)
	}
	if _, err := f.Write(rec); err != nil {
		return err
	}
	return f.Sync()
}

// resetJournal truncates the journal after its record has been fully
// applied (or after recovery replayed it).
func resetJournal(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
