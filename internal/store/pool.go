package store

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"

	"qrel/internal/faultinject"
)

// PoolStats is a point-in-time snapshot of buffer-pool behaviour.
type PoolStats struct {
	Hits        uint64 // fetches served from a resident frame
	Misses      uint64 // fetches that read the data file
	Evictions   uint64 // clean frames dropped by the clock hand
	BytesInUse  int64  // resident frame bytes right now
	MaxBytesUse int64  // high-water mark of BytesInUse
	Quarantined int    // pages pinned out as corrupt
}

// frame is one resident page.
type frame struct {
	id    uint32
	buf   []byte
	pins  int
	dirty bool
	ref   bool // clock reference bit
}

// pool caches pages of one data file under a hard byte budget. Clean
// unpinned frames are evicted by a clock hand; dirty and pinned
// frames are never evicted (the store commits the dirty set before
// it can grow past the budget). Pages that fail validation are
// quarantined: every later fetch returns the same ErrCorruptPage
// without touching the disk again. An evicted frame goes on a free
// list, and a miss or a new page takes its frame from there before it
// allocates one, so a pool that churns allocates nothing per page.
type pool struct {
	f        *os.File
	pageSize int
	budget   int64

	// nDirty counts dirty frames. Only the store's writer changes the
	// dirty set, and always under Store.mu, so that lock guards nDirty
	// and the per-insert budget check reads it without taking mu.
	nDirty int

	mu          sync.Mutex
	frames      map[uint32]*frame
	ring        []uint32 // clock order; may contain stale ids
	hand        int
	free        []*frame // evicted frames, buffers ready for reuse
	stats       PoolStats
	quarantined map[uint32]error
}

func newPool(f *os.File, pageSize int, budget int64) *pool {
	if budget < int64(pageSize)*4 {
		budget = int64(pageSize) * 4 // room for a scan, a join build, and the meta chain
	}
	return &pool{
		f:           f,
		pageSize:    pageSize,
		budget:      budget,
		frames:      make(map[uint32]*frame),
		quarantined: make(map[uint32]error),
	}
}

// get pins page id and returns its frame, reading and validating it
// from disk on a miss. Callers must unpin when done.
func (p *pool) get(id uint32) (*frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err, ok := p.quarantined[id]; ok {
		return nil, err
	}
	if fr, ok := p.frames[id]; ok {
		fr.pins++
		fr.ref = true
		p.stats.Hits++
		return fr, nil
	}
	p.stats.Misses++
	fr := p.takeFrame()
	buf := fr.buf
	if _, err := p.f.ReadAt(buf, int64(id)*int64(p.pageSize)); err != nil {
		p.free = append(p.free, fr)
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			// A chain pointer past the end of the file is corruption,
			// not an I/O failure.
			err = fmt.Errorf("%w: page %d: beyond end of file", ErrCorruptPage, id)
			p.quarantined[id] = err
			p.stats.Quarantined = len(p.quarantined)
			return nil, err
		}
		return nil, fmt.Errorf("store: read page %d: %w", id, err)
	}
	if ferr := faultinject.Hit(faultinject.SiteStoreBitFlip); ferr != nil {
		buf[p.pageSize/2] ^= 0x40 // a single flipped bit, as a failing disk would
	}
	if err := validatePage(buf, id); err != nil {
		p.free = append(p.free, fr)
		p.quarantined[id] = err
		p.stats.Quarantined = len(p.quarantined)
		return nil, err
	}
	*fr = frame{id: id, buf: buf, pins: 1, ref: true}
	p.admit(fr)
	return fr, nil
}

// newFrame installs a fresh, already-formatted page (not yet on
// disk) as a pinned dirty frame.
func (p *pool) newFrame(id uint32, typ byte, relID uint32) *frame {
	p.mu.Lock()
	defer p.mu.Unlock()
	fr := p.takeFrame()
	initPage(fr.buf, typ, relID)
	*fr = frame{id: id, buf: fr.buf, pins: 1, dirty: true, ref: true}
	p.nDirty++
	p.admit(fr)
	return fr
}

// takeFrame returns a frame off the free list, or a new one when the
// list is empty. Its buffer holds stale bytes the caller overwrites.
// Caller holds p.mu.
func (p *pool) takeFrame() *frame {
	if n := len(p.free); n > 0 {
		fr := p.free[n-1]
		p.free = p.free[:n-1]
		return fr
	}
	return &frame{buf: make([]byte, p.pageSize)}
}

// admit evicts clean unpinned frames until fr fits, then inserts it.
// Caller holds p.mu.
func (p *pool) admit(fr *frame) {
	// Clock sweep: second-chance over clean unpinned frames, making
	// room for the incoming frame before it lands.
	for int64(len(p.frames)+1)*int64(p.pageSize) > p.budget {
		evicted := false
		for sweep := 0; sweep < 2*len(p.ring); sweep++ {
			if len(p.ring) == 0 {
				break
			}
			p.hand %= len(p.ring)
			id := p.ring[p.hand]
			cand, ok := p.frames[id]
			if !ok { // stale ring slot from a prior eviction
				p.ring = append(p.ring[:p.hand], p.ring[p.hand+1:]...)
				continue
			}
			if cand.pins > 0 || cand.dirty {
				p.hand++
				continue
			}
			if cand.ref {
				cand.ref = false
				p.hand++
				continue
			}
			delete(p.frames, id)
			p.ring = append(p.ring[:p.hand], p.ring[p.hand+1:]...)
			p.stats.Evictions++
			// Keep the frame for reuse while resident and free frames,
			// this one included, fit the budget. With the frame being
			// admitted, a churning pool then holds one frame over its
			// budget, as it did when a miss allocated before evicting.
			if int64(len(p.frames)+len(p.free)+1)*int64(p.pageSize) <= p.budget {
				p.free = append(p.free, cand)
			}
			evicted = true
			break
		}
		if !evicted {
			break // everything pinned or dirty; budget is enforced upstream by committing
		}
	}
	p.frames[fr.id] = fr
	p.ring = append(p.ring, fr.id)
	p.stats.BytesInUse = int64(len(p.frames)) * int64(p.pageSize)
	if p.stats.BytesInUse > p.stats.MaxBytesUse {
		p.stats.MaxBytesUse = p.stats.BytesInUse
	}
}

func (p *pool) unpin(fr *frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if fr.pins > 0 {
		fr.pins--
	}
}

func (p *pool) markDirty(fr *frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !fr.dirty {
		fr.dirty = true
		p.nDirty++
	}
}

// dirtyFrames returns the dirty set ordered by page id — the commit
// unit the journal records.
func (p *pool) dirtyFrames() []*frame {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*frame, 0, p.nDirty)
	for _, fr := range p.frames {
		if fr.dirty {
			out = append(out, fr)
		}
	}
	slices.SortFunc(out, func(a, b *frame) int { return cmp.Compare(a.id, b.id) })
	return out
}

// dirtyBytes is the dirty set's size. Caller holds Store.mu.
func (p *pool) dirtyBytes() int64 { return int64(p.nDirty) * int64(p.pageSize) }

func (p *pool) markClean(frames []*frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, fr := range frames {
		if fr.dirty {
			fr.dirty = false
			p.nDirty--
		}
	}
}

func (p *pool) snapshotStats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
