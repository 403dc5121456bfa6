package store

import (
	"bytes"
	"testing"
)

// FuzzPage throws arbitrary bytes at the page validator and, when a
// page passes, at the record accessors: validation must never panic,
// and every page it accepts must have an in-bounds slot directory so
// pageRecord cannot slice out of range.
func FuzzPage(f *testing.F) {
	seed := make([]byte, MinPageSize)
	initPage(seed, pageTypeHeap, 0)
	pageInsert(seed, encodeTuple(nil, []int{1, 2}))
	sealPage(seed)
	f.Add(seed)
	unsealed := make([]byte, MinPageSize)
	initPage(unsealed, pageTypeMu, nilPage)
	f.Add(unsealed)
	f.Add(bytes.Repeat([]byte{0xFF}, MinPageSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		if !validPageSize(len(data)) {
			return
		}
		if err := validatePage(data, 0); err != nil {
			return
		}
		// Accepted: every record must be reachable without panicking.
		for i := 0; i < pageNSlots(data); i++ {
			rec := pageRecord(data, i)
			switch pageType(data) {
			case pageTypeHeap:
				if len(rec)%2 == 0 && len(rec) <= 8 {
					elems := make([]int, len(rec)/2)
					_ = decodeTuple(rec, elems)
				}
			case pageTypeMu:
				_, _, _, _ = decodeMu(rec, nil)
			}
		}
	})
}

// FuzzJournal feeds arbitrary bytes to the journal decoder: it must
// never panic, must only yield records whose checksum verifies, and
// must be a prefix-decoder (truncating the input never yields records
// the full input did not).
func FuzzJournal(f *testing.F) {
	img := make([]byte, MinPageSize)
	initPage(img, pageTypeHeap, 0)
	sealPage(img)
	rec := encodeJournalRecord(nil, 1, MinPageSize, []pageImage{{id: 3, data: img}})
	f.Add(rec, MinPageSize)
	f.Add(append(rec, rec...), MinPageSize)
	f.Add(rec[:len(rec)-5], MinPageSize)
	f.Add([]byte(journalMagic), MinPageSize)
	f.Fuzz(func(t *testing.T, data []byte, pageSize int) {
		if !validPageSize(pageSize) {
			return
		}
		recs := decodeJournal(data, pageSize)
		for _, r := range recs {
			for _, im := range r.images {
				if len(im.data) != pageSize {
					t.Fatalf("decoded image of %d bytes from a %d-byte-page journal", len(im.data), pageSize)
				}
			}
		}
		if len(data) > 0 {
			prefix := decodeJournal(data[:len(data)-1], pageSize)
			if len(prefix) > len(recs) {
				t.Fatalf("truncating the journal grew the record count: %d -> %d", len(recs), len(prefix))
			}
		}
	})
}
