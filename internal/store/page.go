// Package store is the crash-safe paged storage engine: slotted
// heap-file pages with per-page CRC-32C, a pinning buffer pool with
// clock eviction under a hard byte budget, and atomic durability
// through a write-ahead intent journal with open-time recovery.
//
// On-disk format (version 1, little-endian throughout):
//
//	file       = page[0] page[1] ... page[pageCount-1]
//	page       = crc u32 | type u8 | flags u8 | nslots u16 |
//	             relID u32 | next u32 | freeEnd u16 | reserved u16 |
//	             slot directory | free space | records
//	slot       = offset u16 | length u16          (one per record)
//
// The CRC-32C (Castagnoli) covers bytes [4, pageSize). Records grow
// down from the end of the page; the slot directory grows up from the
// 20-byte header; freeEnd is the lowest record offset. Page 0 is the
// meta page (magic, format version, page size, page count, catalog);
// catalogs too large for one page chain through `next` into
// continuation meta pages. Heap pages hold fixed-width tuples (two
// bytes per element — exact for rel.MaxUniverse); mu pages hold
// error-probability records (relation index, elements, big.Rat text).
//
// Versioning rule: formatVersion identifies the layout above. Any
// incompatible change (field moved, width changed, record re-encoded)
// bumps the version, and readers MUST reject versions they do not
// know rather than guess; additive changes reuse the version and park
// new fields in reserved space that writers zero.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// ErrCorruptPage is the typed corruption error: CRC mismatch,
// impossible slot directory, undecodable record, or a chain pointer
// leading somewhere it cannot. Callers detect it with errors.Is and
// degrade the request instead of serving fabricated tuples.
var ErrCorruptPage = errors.New("store: corrupt page")

const (
	// formatVersion is bumped on any incompatible layout change;
	// readers reject versions they do not recognise.
	formatVersion = 1

	// DefaultPageSize is the page size Create uses unless overridden.
	DefaultPageSize = 4096
	// MinPageSize keeps room for the header, one slot, and one record.
	MinPageSize = 128
	// MaxPageSize is bounded by the u16 offsets in the slot directory.
	MaxPageSize = 32768

	pageHeaderSize = 20
	slotSize       = 4

	offCRC     = 0
	offType    = 4
	offFlags   = 5
	offNSlots  = 6
	offRelID   = 8
	offNext    = 12
	offFreeEnd = 16

	pageTypeMeta = 1
	pageTypeHeap = 2
	pageTypeMu   = 3

	// nilPage terminates a page chain.
	nilPage = ^uint32(0)
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func validPageSize(n int) bool {
	return n >= MinPageSize && n <= MaxPageSize && n&(n-1) == 0
}

// initPage formats buf in place as an empty page of the given type.
func initPage(buf []byte, typ byte, relID uint32) {
	for i := range buf {
		buf[i] = 0
	}
	buf[offType] = typ
	binary.LittleEndian.PutUint32(buf[offRelID:], relID)
	binary.LittleEndian.PutUint32(buf[offNext:], nilPage)
	binary.LittleEndian.PutUint16(buf[offFreeEnd:], uint16(len(buf)))
}

func pageType(buf []byte) byte    { return buf[offType] }
func pageNSlots(buf []byte) int   { return int(binary.LittleEndian.Uint16(buf[offNSlots:])) }
func pageRelID(buf []byte) uint32 { return binary.LittleEndian.Uint32(buf[offRelID:]) }
func pageNext(buf []byte) uint32  { return binary.LittleEndian.Uint32(buf[offNext:]) }
func pageFreeEnd(buf []byte) int  { return int(binary.LittleEndian.Uint16(buf[offFreeEnd:])) }
func setPageNext(buf []byte, next uint32) {
	binary.LittleEndian.PutUint32(buf[offNext:], next)
}

// pageFreeSpace reports how many payload bytes a new record may take.
func pageFreeSpace(buf []byte) int {
	free := pageFreeEnd(buf) - (pageHeaderSize + slotSize*pageNSlots(buf)) - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// pageInsert appends rec to the page, returning false when it does
// not fit. The caller must re-seal (CRC) before the page hits disk.
func pageInsert(buf []byte, rec []byte) bool {
	if len(rec) > pageFreeSpace(buf) {
		return false
	}
	n := pageNSlots(buf)
	recOff := pageFreeEnd(buf) - len(rec)
	copy(buf[recOff:], rec)
	slotOff := pageHeaderSize + slotSize*n
	binary.LittleEndian.PutUint16(buf[slotOff:], uint16(recOff))
	binary.LittleEndian.PutUint16(buf[slotOff+2:], uint16(len(rec)))
	binary.LittleEndian.PutUint16(buf[offNSlots:], uint16(n+1))
	binary.LittleEndian.PutUint16(buf[offFreeEnd:], uint16(recOff))
	return true
}

// pageRecord returns the i-th record. The page must have passed
// validatePage; no bounds are re-checked here.
func pageRecord(buf []byte, i int) []byte {
	slotOff := pageHeaderSize + slotSize*i
	off := int(binary.LittleEndian.Uint16(buf[slotOff:]))
	n := int(binary.LittleEndian.Uint16(buf[slotOff+2:]))
	return buf[off : off+n]
}

// sealPage stamps the CRC; call exactly once per write-back, after
// the payload is final.
func sealPage(buf []byte) {
	binary.LittleEndian.PutUint32(buf[offCRC:], crc32.Checksum(buf[4:], castagnoli))
}

// validatePage checks the CRC and the structural invariants of the
// slot directory. Every failure wraps ErrCorruptPage.
func validatePage(buf []byte, id uint32) error {
	if want, got := binary.LittleEndian.Uint32(buf[offCRC:]), crc32.Checksum(buf[4:], castagnoli); want != got {
		return fmt.Errorf("%w: page %d: crc mismatch (stored %08x, computed %08x)", ErrCorruptPage, id, want, got)
	}
	switch pageType(buf) {
	case pageTypeMeta, pageTypeHeap, pageTypeMu:
	default:
		return fmt.Errorf("%w: page %d: unknown page type %d", ErrCorruptPage, id, pageType(buf))
	}
	n := pageNSlots(buf)
	freeEnd := pageFreeEnd(buf)
	slotDirEnd := pageHeaderSize + slotSize*n
	if freeEnd > len(buf) || slotDirEnd > freeEnd {
		return fmt.Errorf("%w: page %d: impossible slot directory (%d slots, freeEnd %d, page %d)", ErrCorruptPage, id, n, freeEnd, len(buf))
	}
	for i := 0; i < n; i++ {
		slotOff := pageHeaderSize + slotSize*i
		off := int(binary.LittleEndian.Uint16(buf[slotOff:]))
		length := int(binary.LittleEndian.Uint16(buf[slotOff+2:]))
		if off < freeEnd || off+length > len(buf) {
			return fmt.Errorf("%w: page %d: slot %d out of bounds (off %d, len %d)", ErrCorruptPage, id, i, off, length)
		}
	}
	return nil
}

// encodeTuple writes a heap record: two little-endian bytes per
// element (exact, since rel.MaxUniverse is 1<<16).
func encodeTuple(dst []byte, elems []int) []byte {
	for _, e := range elems {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(e))
	}
	return dst
}

// decodeTuple reads a heap record into elems, which the caller sizes
// to the relation's arity.
func decodeTuple(rec []byte, elems []int) error {
	if len(rec) != 2*len(elems) {
		return fmt.Errorf("record is %d bytes, arity %d needs %d", len(rec), len(elems), 2*len(elems))
	}
	for i := range elems {
		elems[i] = int(binary.LittleEndian.Uint16(rec[2*i:]))
	}
	return nil
}

// encodeMu writes a mu record: relation index, elements, then the
// error probability as a big.Rat string (a/b).
func encodeMu(dst []byte, relIdx int, elems []int, rat string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(relIdx))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(elems)))
	dst = encodeTuple(dst, elems)
	return append(dst, rat...)
}

// decodeMu splits a mu record, decoding its elements into buf when it
// has room; the probability string is validated by the caller against
// big.Rat.
func decodeMu(rec []byte, buf []int) (relIdx int, elems []int, rat string, err error) {
	if len(rec) < 4 {
		return 0, nil, "", fmt.Errorf("mu record is %d bytes, need at least 4", len(rec))
	}
	relIdx = int(binary.LittleEndian.Uint16(rec))
	arity := int(binary.LittleEndian.Uint16(rec[2:]))
	if arity > 16 || len(rec) < 4+2*arity {
		return 0, nil, "", fmt.Errorf("mu record arity %d does not fit %d bytes", arity, len(rec))
	}
	if cap(buf) < arity {
		buf = make([]int, arity)
	}
	elems = buf[:arity]
	if err := decodeTuple(rec[4:4+2*arity], elems); err != nil {
		return 0, nil, "", err
	}
	return relIdx, elems, string(rec[4+2*arity:]), nil
}
