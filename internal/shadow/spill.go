// Inflated reader lists and the per-batch verdict cache: the two pieces of
// shadow state behind a Checker's slow paths (the spill slab is also used
// by the History's reference protocol).
package shadow

import (
	"sync"
	"sync/atomic"

	"futurerd/internal/core"
)

// spillSegBits sets the spill slab's segment size: 2^spillSegBits reader
// lists per segment.
const spillSegBits = 10

const spillSegSize = 1 << spillSegBits
const spillSegMask = spillSegSize - 1

// maxSpillSlots bounds the slot index that fits in reader0 beside
// spillFlag.
const maxSpillSlots = uint32(spillFlag)

// spillSeg is one segment of the slab. Segments are allocated once and
// never move, so a slot's list header keeps its address for the life of
// the history.
type spillSeg [spillSegSize][]core.StrandID

// spillSlab holds the reader lists of inflated words. An inflated word
// stores its slot index in reader0 under spillFlag; element 0 of the
// slot's list is the word's first reader, the rest follow in append order.
// Reaching a list is two slice indexes, no hash.
//
// A deflated slot goes on the free list with its capacity intact, so a
// word that inflates on every write-then-read cycle stops allocating after
// the first. With concurrent checkers (shared) mu is taken only to
// allocate or free a slot; the list itself belongs to the word's owner —
// concurrent batches and stolen chunks touch disjoint pages — so appends
// and reads need no lock. A lone checker never locks.
type spillSlab struct {
	// segs is the segment table, grown copy-on-write under mu and
	// published atomically so lock-free readers always see every segment
	// their slot lives in.
	segs atomic.Pointer[[]*spillSeg]
	mu   sync.Mutex
	next uint32   // slots handed out so far, freed ones included
	free []uint32 // deflated slots, ready for reuse

	// shared is set at construction when several checkers run
	// concurrently (NewHistory); only then do alloc and release lock.
	shared bool
}

// list returns the reader list header of slot.
func (t *spillSlab) list(slot uint32) *[]core.StrandID {
	return &(*t.segs.Load())[slot>>spillSegBits][slot&spillSegMask]
}

// readers returns the reader list of an inflated word, given its reader0.
func (t *spillSlab) readers(r0 core.StrandID) []core.StrandID {
	return *t.list(uint32(r0 &^ spillFlag))
}

// alloc returns an empty slot, recycling a freed one when it can.
func (t *spillSlab) alloc() uint32 {
	if t.shared {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	if n := len(t.free); n > 0 {
		slot := t.free[n-1]
		t.free = t.free[:n-1]
		return slot
	}
	slot := t.next
	if slot == maxSpillSlots {
		panic("shadow: spill slot space exhausted")
	}
	t.next++
	var segs []*spillSeg
	if p := t.segs.Load(); p != nil {
		segs = *p
	}
	if int(slot>>spillSegBits) == len(segs) {
		grown := append(segs[:len(segs):len(segs)], new(spillSeg))
		t.segs.Store(&grown)
	}
	return slot
}

// release empties slot's list, keeping its capacity, and frees the slot.
func (t *spillSlab) release(slot uint32) {
	l := t.list(slot)
	*l = (*l)[:0]
	if t.shared {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	t.free = append(t.free, slot)
}

// addReader records s in w's reader list after a race-free read: into the
// inline slot when it is empty, nowhere when s is already the inline
// reader, otherwise into the spill list.
func (t *spillSlab) addReader(w *word, s core.StrandID, c *counters) {
	switch w.reader0 {
	case core.NoStrand:
		w.reader0 = s
		c.readerAppends++
	case s:
		// Same strand re-reading between writes. An inflated reader0
		// carries spillFlag, so it never equals a strand id.
	default:
		t.appendSpill(w, s, c)
	}
}

// appendSpill records a second or later distinct reader of w — the
// read-epoch state machine's inflation: genuine read contention moves the
// inline reader into a slot's list, followed by s. On an inflated word a
// strand equal to the first or the last entry is already recorded, which
// bounds growth by the number of reader alternations.
func (t *spillSlab) appendSpill(w *word, s core.StrandID, c *counters) {
	if w.reader0&spillFlag == 0 {
		slot := t.alloc()
		l := t.list(slot)
		*l = append(*l, w.reader0, s)
		w.reader0 = spillFlag | core.StrandID(slot)
		c.epochInflations++
		c.readerAppends++
		return
	}
	l := t.list(uint32(w.reader0 &^ spillFlag))
	rs := *l
	if rs[0] == s || rs[len(rs)-1] == s {
		return
	}
	*l = append(rs, s)
	c.readerAppends++
}

// flush empties w's reader list after a write install, along with the
// read-epoch stamp (which must not survive a write: its verdict was
// proven against the previous writer). An inflated word deflates here —
// its slot returns to the free list and the next race-free read re-enters
// the single-reader state. A word with no readers has no stamp either — a
// race-free read always records its reader — so the early return cannot
// strand a stale stamp.
func (t *spillSlab) flush(w *word, c *counters) {
	if w.reader0 == core.NoStrand {
		return
	}
	if w.reader0&spillFlag != 0 {
		t.release(uint32(w.reader0 &^ spillFlag))
		c.epochDeflations++
	}
	w.reader0 = core.NoStrand
	w.lastReader = core.NoStrand
	c.readerFlushes++
}

// entries counts the reader entries of live lists beyond each list's
// first (the inline reader the word held before inflating). Quiescent
// history only.
func (t *spillSlab) entries() uint64 {
	p := t.segs.Load()
	if p == nil {
		return 0
	}
	var n uint64
	for i := uint32(0); i < t.next; i++ {
		if l := len((*p)[i>>spillSegBits][i&spillSegMask]); l > 1 {
			n += uint64(l - 1)
		}
	}
	return n
}

// verdictSlots is the size of the direct-mapped verdict cache. A write
// over words sharing k inflated readers cycles through those k strands on
// every word; with k well under the slot count each reader costs one query
// per batch instead of one per word.
const verdictSlots = 64

// verdictEntry caches Precedes(src, current strand) under stamp.
type verdictEntry struct {
	src   core.StrandID
	stamp uint32
	ok    bool
}

// verdictCache is a direct-mapped cache of "u precedes the current
// strand" verdicts, keyed by the source strand u. It is valid only while
// the construct generation and the current strand stay fixed (the window
// in which the reachability relation is immutable); a Checker resets it
// at every batch, which has one strand and one generation. The zero value
// is an empty cache: its entries name NoStrand, which is never queried.
type verdictCache struct {
	stamp uint32
	e     [verdictSlots]verdictEntry
}

// reset invalidates every entry by bumping the stamp. On wraparound the
// entries are cleared so an entry 2^32 resets old cannot come back.
func (v *verdictCache) reset() {
	v.stamp++
	if v.stamp == 0 {
		v.e = [verdictSlots]verdictEntry{}
	}
}

// precedes answers Precedes(u, s) from the cache, querying reach on a miss.
// Strand ids are allocated densely, so the low bits spread the readers of
// one window across distinct slots.
func (v *verdictCache) precedes(u, s core.StrandID, reach core.Reach, hits *uint64) bool {
	e := &v.e[u&(verdictSlots-1)]
	if e.src == u && e.stamp == v.stamp {
		*hits++
		return e.ok
	}
	ok := reach.Precedes(u, s)
	*e = verdictEntry{src: u, stamp: v.stamp, ok: ok}
	return ok
}
