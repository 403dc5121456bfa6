package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"sync"

	"qrel/internal/checkpoint"
	"qrel/internal/faultinject"
	"qrel/internal/ra"
	"qrel/internal/rel"
	"qrel/internal/unreliable"
)

const (
	storeMagic = "QRELSTO1"
	// DefaultPoolBytes is the buffer-pool budget when Options leaves it
	// zero: enough to keep a scan, a join build side, and the meta
	// chain resident for small stores, small enough that million-tuple
	// files actually page.
	DefaultPoolBytes = 1 << 20

	// meta page 0 carries magic(8) + version(4) + pageSize(4) + catLen(4)
	// before the first catalog chunk.
	metaFixedSize = 20
)

// Options configures Create and Open.
type Options struct {
	// PageSize is used by Create only (Open reads it from the file).
	// Zero means DefaultPageSize; it must be a power of two in
	// [MinPageSize, MaxPageSize].
	PageSize int
	// PoolBytes is the hard buffer-pool budget. Zero means
	// DefaultPoolBytes. The pool clamps it to at least four pages.
	PoolBytes int64
}

// catRel is the catalog entry for one relation: its heap-page chain
// and counters.
type catRel struct {
	Name   string `json:"name"`
	Arity  int    `json:"arity"`
	Head   uint32 `json:"head"`
	Tail   uint32 `json:"tail"`
	Pages  uint32 `json:"pages"`
	Tuples uint64 `json:"tuples"`
}

// catConst preserves vocabulary constant order (a map would not).
type catConst struct {
	Name string `json:"name"`
	Elem int    `json:"elem"`
}

// catalog is the store's root metadata, JSON-encoded into the meta
// page chain.
type catalog struct {
	N         int        `json:"n"`
	Rels      []catRel   `json:"rels"`
	Consts    []catConst `json:"consts,omitempty"`
	MuHead    uint32     `json:"muHead"`
	MuTail    uint32     `json:"muTail"`
	MuPages   uint32     `json:"muPages"`
	MuCount   uint64     `json:"muCount"`
	PageCount uint32     `json:"pageCount"`
}

// Store is one paged database file plus its intent journal. A Store
// is a single-writer object: interleaving mutation with open scans is
// not supported, but concurrent reads are safe.
type Store struct {
	path        string
	journalPath string
	f           *os.File
	pageSize    int
	pool        *pool

	mu        sync.Mutex
	cat       catalog
	relIdx    map[string]int
	metaPages []uint32 // page 0 plus continuation pages, in chain order
	seq       uint64
	// journalDirty is set while the journal may be out of step with
	// the data file because a commit attempt failed part-way: it may
	// hold a complete record whose pages were never fully applied, a
	// torn tail from an append that died mid-write, or both. The next
	// commit re-runs open-time recovery before appending — complete
	// records are re-applied and only then truncated — so a durable
	// record is never thrown away while torn data pages depend on it,
	// and a torn leftover can never shadow the fresh record.
	journalDirty bool
	// tails holds each chain's tail frame between inserts, pinned and
	// dirty: relation i's heap chain at i, the mu chain last. A nil slot
	// is a chain whose tail is not held; commitLocked, Close and a failed
	// append release them all.
	tails []*frame
	// rec is the buffer the append loop encodes records into, and jbuf
	// the one each commit encodes its journal record into.
	rec, jbuf []byte
}

// Create writes a new empty store for the vocabulary and universe of
// a (its relations are NOT copied — use BuildFromDB to ingest). The
// initial file is written with checkpoint.WriteFileAtomic, so a crash
// during creation leaves either no store or a complete empty one.
func Create(path string, a *rel.Structure, opts Options) (*Store, error) {
	pageSize := opts.PageSize
	if pageSize == 0 {
		pageSize = DefaultPageSize
	}
	if !validPageSize(pageSize) {
		return nil, fmt.Errorf("store: page size %d not a power of two in [%d,%d]", pageSize, MinPageSize, MaxPageSize)
	}
	cat := catalog{N: a.N}
	for _, rs := range a.Voc.Rels {
		cat.Rels = append(cat.Rels, catRel{Name: rs.Name, Arity: rs.Arity, Head: nilPage, Tail: nilPage})
	}
	for _, c := range a.Voc.Consts {
		cat.Consts = append(cat.Consts, catConst{Name: c, Elem: a.Consts[c]})
	}
	cat.MuHead, cat.MuTail = nilPage, nilPage

	// Size the meta chain: adding a page grows the serialized catalog
	// (PageCount changes), so iterate to a fixed point.
	var blob []byte
	metaCount := 1
	for i := 0; i < 8; i++ {
		cat.PageCount = uint32(metaCount)
		var err error
		blob, err = json.Marshal(&cat)
		if err != nil {
			return nil, fmt.Errorf("store: encode catalog: %w", err)
		}
		need := metaChainLen(len(blob), pageSize)
		if need <= metaCount {
			break
		}
		metaCount = need
	}
	file := make([]byte, metaCount*pageSize)
	for i := 0; i < metaCount; i++ {
		buf := file[i*pageSize : (i+1)*pageSize]
		initPage(buf, pageTypeMeta, 0)
		if i+1 < metaCount {
			setPageNext(buf, uint32(i+1))
		}
	}
	writeMetaPayload(file, pageSize, metaSeq(metaCount), blob)
	for i := 0; i < metaCount; i++ {
		sealPage(file[i*pageSize : (i+1)*pageSize])
	}
	// A journal left behind by a previous store incarnation at this
	// path must never replay into the file about to be written: remove
	// it before the new file lands, so no crash point can pair the
	// fresh store with the stale journal. Create's contract is
	// destructive — any pending commit of the old store dies with it.
	if err := os.Remove(path + ".journal"); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: create %s: clear stale journal: %w", path, err)
	}
	if err := checkpoint.WriteFileAtomic(path, file); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", path, err)
	}
	return Open(path, opts)
}

// metaSeq returns [0, 1, ..., n-1]: Create's meta chain is a prefix
// of the page space.
func metaSeq(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(i)
	}
	return out
}

// metaChainLen reports how many meta pages a catalog blob needs.
func metaChainLen(blobLen, pageSize int) int {
	cap0 := pageSize - pageHeaderSize - metaFixedSize
	capN := pageSize - pageHeaderSize
	if blobLen <= cap0 {
		return 1
	}
	rest := blobLen - cap0
	return 1 + (rest+capN-1)/capN
}

// writeMetaPayload lays the catalog blob across the meta chain whose
// pages live in file at the given ids (page buffers must already be
// initialised; the caller seals).
func writeMetaPayload(file []byte, pageSize int, ids []uint32, blob []byte) {
	for i, id := range ids {
		buf := file[int(id)*pageSize : (int(id)+1)*pageSize]
		body := buf[pageHeaderSize:]
		if i == 0 {
			copy(body, storeMagic)
			binary.LittleEndian.PutUint32(body[8:], formatVersion)
			binary.LittleEndian.PutUint32(body[12:], uint32(pageSize))
			binary.LittleEndian.PutUint32(body[16:], uint32(len(blob)))
			body = body[metaFixedSize:]
		}
		n := copy(body, blob)
		for j := n; j < len(body); j++ {
			body[j] = 0
		}
		blob = blob[n:]
	}
}

// Open opens an existing store: first it recovers the journal
// (replaying complete records, discarding a torn tail), then reads
// and validates the meta chain.
func Open(path string, opts Options) (*Store, error) {
	if err := recoverJournal(path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	s, err := openFile(f, path, opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func openFile(f *os.File, path string, opts Options) (*Store, error) {
	// Bootstrap: the page size lives at a fixed offset of page 0.
	head := make([]byte, pageHeaderSize+metaFixedSize)
	if _, err := f.ReadAt(head, 0); err != nil {
		return nil, fmt.Errorf("%w: %s: file too small for a meta page", ErrCorruptPage, path)
	}
	if string(head[pageHeaderSize:pageHeaderSize+8]) != storeMagic {
		return nil, fmt.Errorf("%w: %s: bad magic (not a store file?)", ErrCorruptPage, path)
	}
	version := int(binary.LittleEndian.Uint32(head[pageHeaderSize+8:]))
	if version != formatVersion {
		return nil, fmt.Errorf("store: %s: format version %d not supported (this build reads version %d)", path, version, formatVersion)
	}
	pageSize := int(binary.LittleEndian.Uint32(head[pageHeaderSize+12:]))
	if !validPageSize(pageSize) {
		return nil, fmt.Errorf("%w: %s: impossible page size %d", ErrCorruptPage, path, pageSize)
	}
	poolBytes := opts.PoolBytes
	if poolBytes == 0 {
		poolBytes = DefaultPoolBytes
	}
	s := &Store{
		path:        path,
		journalPath: path + ".journal",
		f:           f,
		pageSize:    pageSize,
		pool:        newPool(f, pageSize, poolBytes),
		seq:         1,
	}
	// Walk the meta chain and reassemble the catalog blob.
	catLen := int(binary.LittleEndian.Uint32(head[pageHeaderSize+16:]))
	if catLen < 0 || catLen > 1<<26 {
		return nil, fmt.Errorf("%w: %s: impossible catalog length %d", ErrCorruptPage, path, catLen)
	}
	blob := make([]byte, 0, catLen)
	id := uint32(0)
	for len(blob) < catLen {
		if id == nilPage {
			return nil, fmt.Errorf("%w: %s: meta chain ends with %d of %d catalog bytes", ErrCorruptPage, path, len(blob), catLen)
		}
		fr, err := s.pool.get(id)
		if err != nil {
			return nil, err
		}
		if typ := pageType(fr.buf); typ != pageTypeMeta {
			s.pool.unpin(fr)
			return nil, fmt.Errorf("%w: %s: meta chain reaches page %d of type %d", ErrCorruptPage, path, id, typ)
		}
		body := fr.buf[pageHeaderSize:]
		if id == 0 {
			body = body[metaFixedSize:]
		}
		take := catLen - len(blob)
		if take > len(body) {
			take = len(body)
		}
		blob = append(blob, body[:take]...)
		s.metaPages = append(s.metaPages, id)
		id = pageNext(fr.buf)
		s.pool.unpin(fr)
	}
	if err := json.Unmarshal(blob, &s.cat); err != nil {
		return nil, fmt.Errorf("%w: %s: catalog does not decode: %v", ErrCorruptPage, path, err)
	}
	if s.cat.N < 0 || s.cat.N > rel.MaxUniverse {
		return nil, fmt.Errorf("%w: %s: catalog universe %d out of range", ErrCorruptPage, path, s.cat.N)
	}
	if fi, err := f.Stat(); err == nil && fi.Size() != int64(s.cat.PageCount)*int64(pageSize) {
		return nil, fmt.Errorf("%w: %s: file is %d bytes, catalog says %d pages of %d", ErrCorruptPage, path, fi.Size(), s.cat.PageCount, pageSize)
	}
	s.relIdx = make(map[string]int, len(s.cat.Rels))
	for i, r := range s.cat.Rels {
		if r.Arity < 0 || r.Arity > rel.MaxArity {
			return nil, fmt.Errorf("%w: %s: relation %s has impossible arity %d", ErrCorruptPage, path, r.Name, r.Arity)
		}
		s.relIdx[r.Name] = i
	}
	s.tails = make([]*frame, len(s.cat.Rels)+1)
	return s, nil
}

// recoverJournal replays every complete journal record into the data
// file and truncates the journal. Full-page images are idempotent, so
// replaying a journal that was already partially applied is safe; a
// torn tail is the commit that never happened and is discarded.
func recoverJournal(path string) error {
	jpath := path + ".journal"
	data, err := os.ReadFile(jpath)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	if len(data) < journalHeaderSize || string(data[:8]) != journalMagic {
		// Garbage or a tail torn before the header completed: the
		// commit never happened.
		return resetJournal(jpath)
	}
	pageSize := int(binary.LittleEndian.Uint32(data[20:]))
	if !validPageSize(pageSize) {
		return resetJournal(jpath)
	}
	// Cross-check the data file before trusting the journal: a journal
	// copied or renamed next to a store it does not belong to passes
	// its own CRC yet would replay at wrong offsets. If the data
	// file's meta page yields a valid page size that disagrees, refuse
	// to touch either file. A torn or flipped meta head reads as
	// invalid and does not block replay — the journal may be exactly
	// what heals it.
	if ds, ok := dataFilePageSize(path); ok && ds != pageSize {
		return fmt.Errorf("%w: %s: journal page size %d does not match store page size %d (journal from another store?)", ErrCorruptPage, jpath, pageSize, ds)
	}
	recs := decodeJournal(data, pageSize)
	if len(recs) > 0 {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		for _, rec := range recs {
			for _, im := range rec.images {
				if _, err := f.WriteAt(im.data, int64(im.id)*int64(pageSize)); err != nil {
					f.Close()
					return fmt.Errorf("store: recovery replay page %d: %w", im.id, err)
				}
			}
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return resetJournal(jpath)
}

// dataFilePageSize reads the page size recorded in the data file's
// meta page. ok is false when the file is missing or its head does
// not parse as a store meta page (the field sits in the first half of
// page 0, so even a half-page tear leaves it readable).
func dataFilePageSize(path string) (int, bool) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false
	}
	defer f.Close()
	head := make([]byte, pageHeaderSize+metaFixedSize)
	if _, err := f.ReadAt(head, 0); err != nil {
		return 0, false
	}
	if string(head[pageHeaderSize:pageHeaderSize+8]) != storeMagic {
		return 0, false
	}
	ps := int(binary.LittleEndian.Uint32(head[pageHeaderSize+12:]))
	if !validPageSize(ps) {
		return 0, false
	}
	return ps, true
}

// Close releases the file without committing: uncommitted mutations
// are discarded, exactly as a crash would discard them.
func (s *Store) Close() error {
	s.mu.Lock()
	s.releaseTails()
	s.mu.Unlock()
	return s.f.Close()
}

// Path returns the data file path.
func (s *Store) Path() string { return s.path }

// PageSize returns the page size recorded in the meta page.
func (s *Store) PageSize() int { return s.pageSize }

// PageCount returns the number of pages in the file (including
// uncommitted allocations).
func (s *Store) PageCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.cat.PageCount)
}

// Stats returns a snapshot of buffer-pool behaviour.
func (s *Store) Stats() PoolStats { return s.pool.snapshotStats() }

// Universe returns the universe size; with Arity and Scan it makes
// *Store an ra.Source, so the Volcano operators pull tuples straight
// off the pages.
func (s *Store) Universe() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cat.N
}

// Relations returns the relation symbols in vocabulary order.
func (s *Store) Relations() []rel.RelSym {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]rel.RelSym, len(s.cat.Rels))
	for i, cr := range s.cat.Rels {
		out[i] = rel.RelSym{Name: cr.Name, Arity: cr.Arity}
	}
	return out
}

// Arity reports the arity of a named relation.
func (s *Store) Arity(name string) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.relIdx[name]
	if !ok {
		return 0, false
	}
	return s.cat.Rels[i].Arity, true
}

// Tuples returns the committed-plus-pending tuple count of a relation.
func (s *Store) Tuples(name string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.relIdx[name]
	if !ok {
		return 0
	}
	return s.cat.Rels[i].Tuples
}

// AddTuple appends t to the named relation. The write lands in the
// buffer pool; Commit makes it durable. When the dirty set approaches
// the pool budget the store commits automatically, keeping the budget
// hard.
func (s *Store) AddTuple(name string, t rel.Tuple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.relIdx[name]
	if !ok {
		return fmt.Errorf("store: unknown relation %q", name)
	}
	_, err := s.appendLocked(s.heapChain(i), 1, func(dst []byte) ([]byte, bool, error) {
		rec, err := s.tupleRecord(dst, i, t)
		return rec, true, err
	})
	return err
}

// tupleRecord checks t against relation i's arity and the universe,
// then appends its heap record to dst. Caller holds s.mu.
func (s *Store) tupleRecord(dst []byte, i int, t rel.Tuple) ([]byte, error) {
	cr := &s.cat.Rels[i]
	if len(t) != cr.Arity {
		return nil, fmt.Errorf("store: relation %s/%d: tuple has arity %d", cr.Name, cr.Arity, len(t))
	}
	for _, e := range t {
		if e < 0 || e >= s.cat.N {
			return nil, fmt.Errorf("store: relation %s: element %d outside universe [0,%d)", cr.Name, e, s.cat.N)
		}
	}
	return encodeTuple(dst, t), nil
}

// SetError records mu(atom) = p for the unreliable database stored in
// the mu chain. p must be in (0, 1]; presence of the atom in the heap
// decides observed-vs-absent exactly as unreliable.DB does.
func (s *Store) SetError(name string, t rel.Tuple, p *big.Rat) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.relIdx[name]
	if !ok {
		return fmt.Errorf("store: unknown relation %q", name)
	}
	cr := &s.cat.Rels[i]
	if len(t) != cr.Arity {
		return fmt.Errorf("store: relation %s/%d: atom has arity %d", cr.Name, cr.Arity, len(t))
	}
	for _, e := range t {
		if e < 0 || e >= s.cat.N {
			return fmt.Errorf("store: relation %s: element %d outside universe [0,%d)", cr.Name, e, s.cat.N)
		}
	}
	if p == nil || p.Sign() <= 0 || p.Cmp(big.NewRat(1, 1)) > 0 {
		return fmt.Errorf("store: mu(%s%v) = %v outside (0,1]", name, t, p)
	}
	_, err := s.appendLocked(s.muChain(), 1, func(dst []byte) ([]byte, bool, error) {
		return encodeMu(dst, i, t, p.RatString()), true, nil
	})
	return err
}

// chain is the catalog's view of one page chain — a relation's heap
// chain or the mu chain — and its slot in Store.tails.
type chain struct {
	slot              int
	typ               byte
	relID             uint32
	head, tail, pages *uint32
	count             *uint64
}

func (s *Store) heapChain(i int) chain {
	cr := &s.cat.Rels[i]
	return chain{slot: i, typ: pageTypeHeap, relID: uint32(i), head: &cr.Head, tail: &cr.Tail, pages: &cr.Pages, count: &cr.Tuples}
}

func (s *Store) muChain() chain {
	return chain{slot: len(s.cat.Rels), typ: pageTypeMu, relID: nilPage,
		head: &s.cat.MuHead, tail: &s.cat.MuTail, pages: &s.cat.MuPages, count: &s.cat.MuCount}
}

// appendLocked is the store's one append path: AddTuple, SetError and
// BuildFromDB all write through it. It appends up to max records (max
// < 0: no limit) at the tail of chain c, each one appended to an empty
// dst by next, which reports false once it has no more, and returns how
// many it appended. The chain's tail frame stays pinned and dirty in
// s.tails between records and between calls, so a record that fits the
// tail page costs a pageInsert and no pool call: the pool is visited
// once per page, to allocate the next one, and once per chain after a
// commit released its tail. The budget check runs before every record,
// as it always has, so the auto-commits fall on the same records.
// Caller holds s.mu.
func (s *Store) appendLocked(c chain, max int, next func(dst []byte) ([]byte, bool, error)) (n int, err error) {
	defer func() {
		if err != nil {
			s.releaseTails()
		}
	}()
	var rec []byte
	var ok bool
	for ; n != max; n++ {
		if rec, ok, err = next(s.rec[:0]); err != nil || !ok {
			return n, err
		}
		s.rec = rec
		// Refuse a record that cannot fit even an empty page before any
		// allocation: past this point a fresh page admitted to the dirty
		// set would be journaled at the next commit as an unreferenced
		// orphan that inflates the file.
		if len(rec) > s.pageSize-pageHeaderSize-slotSize {
			return n, fmt.Errorf("store: record of %d bytes does not fit an empty %d-byte page", len(rec), s.pageSize)
		}
		// Keep the budget hard: committing dirties the meta chain too, so
		// flush while that chain plus a fresh page and its link still fit.
		if s.pool.dirtyBytes()+int64(len(s.metaPages)+2)*int64(s.pageSize) > s.pool.budget {
			if err := s.commitLocked(); err != nil {
				return n, err
			}
		}
		tail := s.tails[c.slot]
		if tail == nil && *c.tail != nilPage {
			if tail, err = s.pool.get(*c.tail); err != nil {
				return n, err
			}
			// A fetched tail is written either way: by this record, or by
			// the link to the page that takes it.
			s.pool.markDirty(tail)
			s.tails[c.slot] = tail
		}
		if tail != nil && pageInsert(tail.buf, rec) {
			*c.count++
			continue
		}
		// Allocate a fresh page (the record fits it: checked above) and
		// link it at the tail.
		id := s.cat.PageCount
		s.cat.PageCount++
		fr := s.pool.newFrame(id, c.typ, c.relID)
		pageInsert(fr.buf, rec)
		if tail != nil {
			setPageNext(tail.buf, id)
			s.pool.unpin(tail)
		} else {
			*c.head = id
		}
		s.tails[c.slot] = fr
		*c.tail = id
		*c.pages++
		*c.count++
	}
	return n, nil
}

// releaseTails unpins every chain's held tail frame. The frames stay
// dirty until a commit cleans them. Caller holds s.mu.
func (s *Store) releaseTails() {
	for i, fr := range s.tails {
		if fr != nil {
			s.pool.unpin(fr)
			s.tails[i] = nil
		}
	}
}

// Commit makes every buffered mutation durable: catalog meta pages
// are rewritten, the dirty set is journaled and fsynced, applied to
// the data file, fsynced again, and only then is the journal
// truncated. If Commit returns an error the on-disk state is either
// the previous commit or (after reopening) this one — never a blend.
func (s *Store) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitLocked()
}

func (s *Store) commitLocked() error {
	s.releaseTails() // a held tail must be dirty, and the commit cleans it
	if s.pool.dirtyBytes() == 0 {
		// Catalog counters only change alongside page mutations, so a
		// clean pool means nothing to write.
		return nil
	}
	if s.journalDirty {
		// A prior commit failed part-way. Re-running open-time recovery
		// re-applies any complete journal record — healing data pages a
		// short write tore — and discards a torn tail; only after both
		// is the journal truncated, so this commit's record starts on
		// an empty journal without ever destroying a durable record the
		// data file still needs. Resident frames stay coherent: every
		// page in the old record is still dirty in the pool (markClean
		// only runs on success), so the pool holds content at least as
		// new as the replayed images.
		if err := recoverJournal(s.path); err != nil {
			return err
		}
		s.journalDirty = false
	}
	if err := s.writeCatalogLocked(); err != nil {
		return err
	}
	frames := s.pool.dirtyFrames()
	images := make([]pageImage, 0, len(frames))
	for _, fr := range frames {
		sealPage(fr.buf)
		images = append(images, pageImage{id: fr.id, data: fr.buf})
	}
	s.jbuf = encodeJournalRecord(s.jbuf[:0], s.seq, s.pageSize, images)
	s.journalDirty = true
	if err := appendJournal(s.journalPath, s.jbuf); err != nil {
		return err
	}
	if ferr := faultinject.Hit(faultinject.SiteStoreCrash); ferr != nil {
		// Crash window between journal fsync and page apply: the
		// journal is durable, so recovery will complete this commit.
		return fmt.Errorf("store: commit: %w", ferr)
	}
	for _, im := range images {
		off := int64(im.id) * int64(s.pageSize)
		if ferr := faultinject.Hit(faultinject.SiteStoreShortWrite); ferr != nil {
			s.f.WriteAt(im.data[:s.pageSize/2], off)
			s.f.Sync()
			return fmt.Errorf("store: apply page %d: %w", im.id, ferr)
		}
		if _, err := s.f.WriteAt(im.data, off); err != nil {
			return fmt.Errorf("store: apply page %d: %w", im.id, err)
		}
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	if err := resetJournal(s.journalPath); err != nil {
		return err
	}
	s.journalDirty = false
	s.pool.markClean(frames)
	s.seq++
	return nil
}

// writeCatalogLocked serializes the catalog into the meta chain,
// growing the chain (and therefore the catalog) to a fixed point.
func (s *Store) writeCatalogLocked() error {
	var blob []byte
	for i := 0; i < 8; i++ {
		var err error
		blob, err = json.Marshal(&s.cat)
		if err != nil {
			return fmt.Errorf("store: encode catalog: %w", err)
		}
		need := metaChainLen(len(blob), s.pageSize)
		if need <= len(s.metaPages) {
			break
		}
		// Grow the chain; the new page id changes the catalog, so loop.
		id := s.cat.PageCount
		s.cat.PageCount++
		fr := s.pool.newFrame(id, pageTypeMeta, 0)
		s.pool.unpin(fr)
		s.metaPages = append(s.metaPages, id)
	}
	for i, id := range s.metaPages {
		fr, err := s.pool.get(id)
		if err != nil {
			return err
		}
		initPage(fr.buf, pageTypeMeta, 0)
		if i+1 < len(s.metaPages) {
			setPageNext(fr.buf, s.metaPages[i+1])
		}
		s.pool.markDirty(fr)
		s.pool.unpin(fr)
	}
	// Lay the blob across the chain through a contiguous view of the
	// frames (they stay pinned only one at a time above; re-fetch).
	rest := blob
	for i, id := range s.metaPages {
		fr, err := s.pool.get(id)
		if err != nil {
			return err
		}
		body := fr.buf[pageHeaderSize:]
		if i == 0 {
			copy(body, storeMagic)
			binary.LittleEndian.PutUint32(body[8:], formatVersion)
			binary.LittleEndian.PutUint32(body[12:], uint32(s.pageSize))
			binary.LittleEndian.PutUint32(body[16:], uint32(len(blob)))
			body = body[metaFixedSize:]
		}
		n := copy(body, rest)
		for j := n; j < len(body); j++ {
			body[j] = 0
		}
		rest = rest[n:]
		s.pool.unpin(fr)
	}
	return nil
}

// scan streams one page chain in insertion order, decoding a heap
// chain's records into its one tuple t.
type scan struct {
	s      *Store
	relIdx int // -1 for the mu chain
	t      rel.Tuple
	next   uint32
	fr     *frame
	slot   int
	closed bool
}

// Scan returns a streaming iterator over the named relation in
// insertion order. It satisfies ra.TupleIter, so relational plans
// pull straight from the pages; at most one page is pinned at a time.
// The tuple Next returns is borrowed, as ra.TupleIter states: the scan
// decodes every record into the same tuple, so it stays valid only
// until the next Next or Close, and a caller that keeps it clones it.
func (s *Store) Scan(name string) (ra.TupleIter, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.relIdx[name]
	if !ok {
		return nil, fmt.Errorf("store: unknown relation %q", name)
	}
	return &scan{s: s, relIdx: i, t: make(rel.Tuple, s.cat.Rels[i].Arity), next: s.cat.Rels[i].Head}, nil
}

func (sc *scan) Next() (rel.Tuple, bool, error) {
	for {
		if sc.fr == nil {
			if sc.closed || sc.next == nilPage {
				return nil, false, nil
			}
			fr, err := sc.s.pool.get(sc.next)
			if err != nil {
				sc.closed = true
				return nil, false, err
			}
			wantType, wantRel := byte(pageTypeHeap), uint32(sc.relIdx)
			if sc.relIdx < 0 {
				wantType, wantRel = pageTypeMu, nilPage
			}
			if typ, relID := pageType(fr.buf), pageRelID(fr.buf); typ != wantType || relID != wantRel {
				id := fr.id
				sc.s.pool.unpin(fr) // an unpinned frame may be reused at once: read it first
				sc.closed = true
				return nil, false, fmt.Errorf("%w: page %d: chain reaches page of type %d rel %d", ErrCorruptPage, id, typ, relID)
			}
			sc.fr = fr
			sc.slot = 0
		}
		if sc.slot < pageNSlots(sc.fr.buf) {
			rec := pageRecord(sc.fr.buf, sc.slot)
			sc.slot++
			if err := decodeTuple(rec, sc.t); err != nil {
				id := sc.fr.id
				sc.Close()
				return nil, false, fmt.Errorf("%w: page %d: %v", ErrCorruptPage, id, err)
			}
			for _, e := range sc.t {
				if e < 0 || e >= sc.s.cat.N {
					id := sc.fr.id
					sc.Close()
					return nil, false, fmt.Errorf("%w: page %d: element %d outside universe", ErrCorruptPage, id, e)
				}
			}
			return sc.t, true, nil
		}
		next := pageNext(sc.fr.buf)
		sc.s.pool.unpin(sc.fr)
		sc.fr = nil
		sc.next = next
	}
}

func (sc *scan) Close() error {
	if sc.fr != nil {
		sc.s.pool.unpin(sc.fr)
		sc.fr = nil
	}
	sc.closed = true
	return nil
}

// forEachMu streams the mu chain, decoding each record. The tuple and
// the probability fn receives are scratch values, overwritten by the
// next record: unreliable.DB.SetError keeps only the tuple's key and
// its own copy of the probability.
func (s *Store) forEachMu(fn func(relIdx int, t rel.Tuple, p *big.Rat) error) error {
	var (
		elems []int
		p     big.Rat
	)
	s.mu.Lock()
	sc := &scan{s: s, relIdx: -1, next: s.cat.MuHead}
	nRels := len(s.cat.Rels)
	s.mu.Unlock()
	defer sc.Close()
	for {
		if sc.fr == nil {
			if sc.closed || sc.next == nilPage {
				return nil
			}
			fr, err := s.pool.get(sc.next)
			if err != nil {
				return err
			}
			if typ := pageType(fr.buf); typ != pageTypeMu {
				id := fr.id
				s.pool.unpin(fr)
				return fmt.Errorf("%w: page %d: mu chain reaches page of type %d", ErrCorruptPage, id, typ)
			}
			sc.fr = fr
			sc.slot = 0
		}
		if sc.slot >= pageNSlots(sc.fr.buf) {
			next := pageNext(sc.fr.buf)
			s.pool.unpin(sc.fr)
			sc.fr = nil
			sc.next = next
			continue
		}
		rec := pageRecord(sc.fr.buf, sc.slot)
		sc.slot++
		relIdx, t, ratStr, err := decodeMu(rec, elems)
		if err != nil {
			return fmt.Errorf("%w: page %d: %v", ErrCorruptPage, sc.fr.id, err)
		}
		if relIdx >= nRels {
			return fmt.Errorf("%w: page %d: mu record names relation %d of %d", ErrCorruptPage, sc.fr.id, relIdx, nRels)
		}
		elems = t
		// 0 < p ≤ 1 for a reduced p: a positive numerator no larger than
		// the denominator (Rat.Cmp would allocate).
		if !unreliable.ParseProb(&p, ratStr) || p.Sign() <= 0 || p.Num().CmpAbs(p.Denom()) > 0 {
			return fmt.Errorf("%w: page %d: mu record probability %q outside (0,1]", ErrCorruptPage, sc.fr.id, ratStr)
		}
		if err := fn(relIdx, rel.Tuple(t), &p); err != nil {
			return err
		}
	}
}

// LoadDB materializes the stored unreliable database. The relations
// are rebuilt in catalog (= vocabulary) order and mu entries in
// journal order, so a database written by BuildFromDB round-trips to
// an unreliable.DB whose canonical atom order — and therefore every
// engine's estimate for a fixed seed — is bit-identical to the
// original.
func (s *Store) LoadDB() (*unreliable.DB, error) {
	s.mu.Lock()
	voc := &rel.Vocabulary{}
	for _, cr := range s.cat.Rels {
		if err := voc.AddRel(rel.RelSym{Name: cr.Name, Arity: cr.Arity}); err != nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: catalog: %v", ErrCorruptPage, err)
		}
	}
	for _, c := range s.cat.Consts {
		if err := voc.AddConst(c.Name); err != nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: catalog: %v", ErrCorruptPage, err)
		}
	}
	n := s.cat.N
	consts := append([]catConst(nil), s.cat.Consts...)
	names := make([]string, len(s.cat.Rels))
	for i, cr := range s.cat.Rels {
		names[i] = cr.Name
	}
	s.mu.Unlock()

	a, err := rel.NewStructure(n, voc)
	if err != nil {
		return nil, fmt.Errorf("%w: catalog: %v", ErrCorruptPage, err)
	}
	for _, c := range consts {
		if err := a.SetConst(c.Name, c.Elem); err != nil {
			return nil, fmt.Errorf("%w: catalog constant %s: %v", ErrCorruptPage, c.Name, err)
		}
	}
	for _, name := range names {
		it, err := s.Scan(name)
		if err != nil {
			return nil, err
		}
		for {
			t, ok, err := it.Next()
			if err != nil {
				it.Close()
				return nil, err
			}
			if !ok {
				break
			}
			if err := a.Add(name, t); err != nil {
				it.Close()
				return nil, fmt.Errorf("%w: relation %s: %v", ErrCorruptPage, name, err)
			}
		}
		it.Close()
	}
	db := unreliable.New(a)
	err = s.forEachMu(func(relIdx int, t rel.Tuple, p *big.Rat) error {
		return db.SetError(rel.GroundAtom{Rel: names[relIdx], Args: t}, p)
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}

// VerifyStats summarises a full-file verification pass.
type VerifyStats struct {
	Pages     int
	MetaPages int
	HeapPages int
	MuPages   int
	Tuples    uint64
	MuRecords uint64
}

// Verify reads and validates every page and re-walks every chain,
// cross-checking the catalog counters. It is the `mkdb -check`
// backend and the chaos campaign's post-recovery oracle.
func (s *Store) Verify() (VerifyStats, error) {
	s.mu.Lock()
	cat := s.cat
	metaPages := append([]uint32(nil), s.metaPages...)
	names := make([]string, len(cat.Rels))
	for i := range cat.Rels {
		names[i] = cat.Rels[i].Name
	}
	s.mu.Unlock()

	var st VerifyStats
	st.Pages = int(cat.PageCount)
	seen := make(map[uint32]byte, cat.PageCount)
	for id := uint32(0); id < cat.PageCount; id++ {
		fr, err := s.pool.get(id)
		if err != nil {
			return st, err
		}
		seen[id] = pageType(fr.buf)
		switch pageType(fr.buf) {
		case pageTypeMeta:
			st.MetaPages++
		case pageTypeHeap:
			st.HeapPages++
		case pageTypeMu:
			st.MuPages++
		}
		s.pool.unpin(fr)
	}
	for _, id := range metaPages {
		if seen[id] != pageTypeMeta {
			return st, fmt.Errorf("%w: page %d: meta chain reaches a type-%d page", ErrCorruptPage, id, seen[id])
		}
	}
	for i, name := range names {
		it, err := s.Scan(name)
		if err != nil {
			return st, err
		}
		var count uint64
		for {
			_, ok, err := it.Next()
			if err != nil {
				it.Close()
				return st, err
			}
			if !ok {
				break
			}
			count++
		}
		it.Close()
		if count != cat.Rels[i].Tuples {
			return st, fmt.Errorf("%w: relation %s: chain holds %d tuples, catalog says %d", ErrCorruptPage, name, count, cat.Rels[i].Tuples)
		}
		st.Tuples += count
	}
	var muCount uint64
	if err := s.forEachMu(func(int, rel.Tuple, *big.Rat) error { muCount++; return nil }); err != nil {
		return st, err
	}
	if muCount != cat.MuCount {
		return st, fmt.Errorf("%w: mu chain holds %d records, catalog says %d", ErrCorruptPage, muCount, cat.MuCount)
	}
	st.MuRecords = muCount
	return st, nil
}

// BuildFromDB ingests an unreliable database into a new store file at
// path: tuples in vocabulary order (each relation walked by its
// rel.Cursor in key order, so a later LoadDB streams them in the same
// order a memory-resident Source would), then mu entries in canonical
// atom order, committing every batch tuples (0 means one final commit).
// onBatch, if non-nil, runs after each intermediate commit — the ingest
// smoke test uses it to widen the SIGKILL window.
func BuildFromDB(path string, db *unreliable.DB, opts Options, batch int, onBatch func()) error {
	s, err := Create(path, db.A, opts)
	if err != nil {
		return err
	}
	defer s.Close()
	return s.ingest(db, batch, onBatch)
}

// ingest is BuildFromDB on an open store. Each batch of a relation's
// tuples goes through the append loop under one hold of s.mu.
func (s *Store) ingest(db *unreliable.DB, batch int, onBatch func()) error {
	count := 0
	for _, rs := range db.A.Voc.Rels {
		cur := db.A.Rel(rs.Name).Cursor()
		for {
			max := -1
			if batch > 0 {
				max = batch - count%batch
			}
			s.mu.Lock()
			i, ok := s.relIdx[rs.Name]
			if !ok {
				s.mu.Unlock()
				return fmt.Errorf("store: unknown relation %q", rs.Name)
			}
			n, err := s.appendLocked(s.heapChain(i), max, func(dst []byte) ([]byte, bool, error) {
				t, ok := cur.Next()
				if !ok {
					return nil, false, nil
				}
				rec, err := s.tupleRecord(dst, i, t)
				return rec, true, err
			})
			s.mu.Unlock()
			count += n
			if err != nil {
				return err
			}
			if n != max {
				break // the relation is done
			}
			if err := s.Commit(); err != nil {
				return err
			}
			if onBatch != nil {
				onBatch()
			}
		}
	}
	for _, atom := range db.UncertainAtoms() {
		if err := s.SetError(atom.Rel, atom.Args, db.ErrorProb(atom)); err != nil {
			return err
		}
	}
	for _, atom := range db.SureFlips() {
		if err := s.SetError(atom.Rel, atom.Args, db.ErrorProb(atom)); err != nil {
			return err
		}
	}
	return s.Commit()
}
