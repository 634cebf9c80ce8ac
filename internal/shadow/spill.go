// Inflated reader lists, the memos that share and scan them, the
// per-batch range memo and the per-batch verdict cache: the shadow state
// behind a Checker's slow paths and its memo tier (the spill slab is also
// used by the History's reference protocol).
package shadow

import (
	"math/bits"

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
type spillSeg struct {
	lists [spillSegSize][]core.StrandID
	// refs counts each slot's references beyond the first: zero means
	// one word holds the slot. The table is allocated when one of the
	// segment's slots is first shared, so a segment of unshared slots
	// costs one nil pointer more than its list headers. A slot is shared
	// only by words of one page, so at most pageSize words hold it.
	refs *[spillSegSize]uint16
}

var _ [1<<16 - pageSize]struct{} // a page's words fit a uint16 count

// spillSlab holds the reader lists of inflated words. An inflated word
// stores its slot index in reader0 under spillFlag; element 0 of the
// slot's list is the word's first reader, the rest follow in append order.
// Reaching a list is two slice indexes, no hash.
//
// Words of one page that went through the same reader-list transition
// share one slot (see shareMemo): a slot is reference-counted and
// copy-on-write. A list is appended in place only while one word holds
// it; a reader joining a shared list copies it into a fresh slot, and the
// words that follow the same transition point at the copy. Every word
// still sees exactly the list the per-word protocol would give it, so
// verdicts, racers and the word-logical counters are unchanged.
//
// A freed slot goes on the free list with its capacity intact, so a word
// that inflates on every write-then-read cycle stops allocating after the
// first.
type spillSlab struct {
	segs []*spillSeg // the segment table, one segment per 2^spillSegBits slots
	next uint32      // slots handed out so far, freed ones included
	free []uint32    // freed slots, ready for reuse
}

// slotOf returns the slot index of an inflated word's reader0.
func slotOf(r0 core.StrandID) uint32 { return uint32(r0 &^ spillFlag) }

// seg returns the segment holding slot.
func (t *spillSlab) seg(slot uint32) *spillSeg {
	return t.segs[slot>>spillSegBits]
}

// list returns the reader list header of slot.
func (t *spillSlab) list(slot uint32) *[]core.StrandID {
	return &t.seg(slot).lists[slot&spillSegMask]
}

// readers returns the reader list of an inflated word, given its reader0.
func (t *spillSlab) readers(r0 core.StrandID) []core.StrandID {
	return *t.list(slotOf(r0))
}

// recorded reports whether the inflated list r0 already records s as its
// first or last entry — the entries step checks before it appends, so
// step never appends a strand recorded there.
func (t *spillSlab) recorded(r0, s core.StrandID) bool {
	rs := t.readers(r0)
	return rs[0] == s || rs[len(rs)-1] == s
}

// alloc returns an empty unshared slot, recycling a freed one when it
// can.
func (t *spillSlab) alloc() uint32 {
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
	if int(slot>>spillSegBits) == len(t.segs) {
		t.segs = append(t.segs, new(spillSeg))
	}
	return slot
}

// release empties slot's list, keeping its capacity, and frees the slot.
// Its count is already zero: a slot is freed by its last holder.
func (t *spillSlab) release(sg *spillSeg, slot uint32) {
	l := &sg.lists[slot&spillSegMask]
	*l = (*l)[:0]
	t.free = append(t.free, slot)
}

// shared reports whether more than one word holds slot.
func (sg *spillSeg) shared(slot uint32) bool {
	return sg.refs != nil && sg.refs[slot&spillSegMask] != 0
}

// share adds n holders to slot, allocating the segment's count table on
// its first shared slot.
func (t *spillSlab) share(slot uint32, n uint64) {
	sg := t.seg(slot)
	if sg.refs == nil {
		sg.refs = new([spillSegSize]uint16)
	}
	sg.refs[slot&spillSegMask] += uint16(n)
}

// unref drops n holders of slot and frees it when none are left. A freed
// list is dropped from scans, the caller's scan memo (nil for the
// reference protocol, which keeps none).
func (t *spillSlab) unref(sg *spillSeg, slot uint32, n uint64, scans *scanMemo) {
	if r := sg.refs; r != nil {
		c := &r[slot&spillSegMask]
		if uint64(*c) >= n {
			*c -= uint16(n)
			return
		}
		*c = 0
	}
	t.release(sg, slot)
	if scans != nil {
		scans.drop(spillFlag | core.StrandID(slot))
	}
}

// shareMemo is the last reader-list transition made in one page segment:
// a word's reader0 went from from to to when the reader joined its list.
// Every later word of the segment whose reader0 is still from holds the
// same list, so the same reader makes it the same new list and the word
// just points at to. Only the first word pays for the inflation, in-place
// append or copy. Holder counts and counters for all n words are applied
// in one step by settle.
//
// The memo is valid for one op's segment on one page (settle ends it):
// sharing never crosses a page, which keeps every slot private to the
// page's owner. The empty memo has from NoStrand, a reader0 addShared
// handles before it consults the memo.
type shareMemo struct {
	from, to core.StrandID // reader0 before and after the transition
	n        uint64        // words that took it, the first included
	grew     bool          // the reader joined (false: already at an end)
	inflated bool          // from was a lone inline reader
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
		var m shareMemo
		t.step(w, s, &m)
		t.settle(&m, c, nil)
	}
}

// addShared is addReader for the words of one page segment, through the
// segment's transition memo m; scans is the caller's scan memo. The
// caller has already skipped a word whose list records s.
func (t *spillSlab) addShared(w *word, s core.StrandID, m *shareMemo, c *counters, scans *scanMemo) {
	switch r0 := w.reader0; r0 {
	case core.NoStrand:
		w.reader0 = s
		c.readerAppends++
	case m.from:
		w.reader0 = m.to
		m.n++
	default:
		t.settle(m, c, scans)
		t.step(w, s, m)
	}
}

// step records a second or later distinct reader s of w and starts the
// memo m for that transition — the read-state machine's inflation:
// genuine read contention moves the inline reader into a slot's list,
// followed by s. On an inflated word a strand equal to the first or the
// last entry is already recorded, which bounds growth by the number of
// reader alternations. A list held by one word grows in place; a shared
// one is copied, since its other holders keep the old list.
func (t *spillSlab) step(w *word, s core.StrandID, m *shareMemo) {
	r0 := w.reader0
	*m = shareMemo{from: r0, to: r0, n: 1, grew: true}
	if r0&spillFlag == 0 {
		slot := t.alloc()
		l := t.list(slot)
		*l = append(*l, r0, s)
		m.to, m.inflated = spillFlag|core.StrandID(slot), true
	} else {
		slot := slotOf(r0)
		sg := t.seg(slot)
		l := &sg.lists[slot&spillSegMask]
		switch {
		case t.recorded(r0, s):
			m.grew = false
		case !sg.shared(slot):
			*l = append(*l, s)
		default:
			ns := t.alloc()
			nl := t.list(ns)
			*nl = append(append(*nl, *l...), s)
			m.to = spillFlag | core.StrandID(ns)
		}
	}
	w.reader0 = m.to
}

// settle ends the memo m: the counters of its n words and the holder
// counts of both slots are brought up to date. The old list is freed when
// every holder moved to the copy.
func (t *spillSlab) settle(m *shareMemo, c *counters, scans *scanMemo) {
	n := m.n
	if n == 0 {
		return
	}
	if m.grew {
		c.readerAppends += n
		c.spillEntries += n
	}
	if m.inflated {
		c.epochInflations += n
	}
	if m.to != m.from {
		if n > 1 {
			t.share(slotOf(m.to), n-1)
		}
		if !m.inflated {
			from := slotOf(m.from)
			t.unref(t.seg(from), from, n, scans)
		}
	}
	*m = shareMemo{}
}

// flush empties w's reader list after a write install: the readers'
// verdicts were proven against the previous writer. An inflated word
// deflates here — it lets go of its slot, the last holder frees it, and
// the next race-free read re-enters the single-reader state. scans is the
// caller's scan memo.
func (t *spillSlab) flush(w *word, c *counters, scans *scanMemo) {
	r0 := w.reader0
	if r0 == core.NoStrand {
		return
	}
	if r0&spillFlag != 0 {
		slot := slotOf(r0)
		sg := t.seg(slot)
		c.spillEntries -= uint64(len(sg.lists[slot&spillSegMask]) - 1)
		t.unref(sg, slot, 1, scans)
		c.epochDeflations++
	}
	w.reader0 = core.NoStrand
	c.readerFlushes++
}

// scanSlots is the size of the direct-mapped scan memo.
const scanSlots = 16

// scanEntry is the write-side scan of one inflated list under stamp: the
// first reader that does not precede the batch's strand (NoStrand if all
// do), and the number of verdicts the scan looked up to find it.
type scanEntry struct {
	list  core.StrandID // the scanned list's reader0
	racer core.StrandID
	calls uint32
	stamp uint32
}

// scanMemo caches, per batch, the write-side scan of inflated lists keyed
// by slot: a write over many words that share one list scans the list
// once. The batch's strand and relation are fixed, so a list's scan
// result only changes if its slot is freed and reused (an in-place append
// during the batch adds the batch's own strand, which the scan skips).
// Freeing a slot drops its entry (unref), and only the owner of the
// slot's page frees it, so the memo stays private to its checker. The
// zero value is empty: no entry names NoStrand.
type scanMemo struct {
	stamp uint32
	e     [scanSlots]scanEntry
}

// reset invalidates every entry, as verdictCache.reset does.
func (m *scanMemo) reset() {
	m.stamp++
	if m.stamp == 0 {
		m.e = [scanSlots]scanEntry{}
	}
}

// lookup returns the entry of list if it holds a scan from this batch.
func (m *scanMemo) lookup(list core.StrandID) (*scanEntry, bool) {
	e := &m.e[list&(scanSlots-1)]
	return e, e.list == list && e.stamp == m.stamp
}

// drop forgets the scan of a list whose slot was freed.
func (m *scanMemo) drop(list core.StrandID) {
	if e := &m.e[list&(scanSlots-1)]; e.list == list {
		e.list = core.NoStrand
	}
}

// rangeBits sets the size of the direct-mapped range memo: 2^rangeBits
// slots. Each of its two live masks holds one bit per slot, so the memo
// has at most 64. The size is measured: on mm-replay, 16, 32, 64, 128
// and 256 slots answer 68%, 79%, 86%, 88% and 89% of its multi-word ops.
const rangeBits = 6

const rangeSlots = 1 << rangeBits

var _ [64 - rangeSlots]struct{} // the live masks are uint64

// minRangeWords is the narrowest op the range memo keeps. Narrower ops
// run the loop, which costs little at their width: a memo of ops of 2
// words and up answered 101k of lcs's 358k multi-word ops (about 2 words
// each) and made lcs-mbplus no faster, while 8 still keeps mm's 16-word
// rows.
const minRangeWords = 8

// rangeEntry is one multi-word op settled in this batch: its exact range,
// and how many of its words the batch's strand owns.
type rangeEntry struct {
	addr  uint64
	words int
	owned uint64
}

// rangeMemo remembers, per batch, the multi-word ranges the batch's
// strand has already settled, keyed by their exact (addr, words), so an
// exact repeat skips the per-word loop. Within one batch only its strand
// touches the history, and:
//
//   - after a WriteRange every word of the range is owned by the strand
//     with no readers, and the strand's own later reads and writes keep
//     it so: a write entry answers a repeat read or write with one owned
//     skip per word;
//   - after a race-free ReadRange each word is either owned or records
//     the strand (reads keep both), so a repeat read skips owned words
//     and read-shares the rest. Only a write that runs the protocol on a
//     recorded word moves it to owned, so every range write, and every
//     one-word write that runs the protocol, drops the read entries it
//     overlaps (drop).
//
// Begin resets the memo: its live masks empty, which forgets every entry.
type rangeMemo struct {
	e             [rangeSlots]rangeEntry
	reads, writes uint64 // live read and write entries, one bit per slot
	lo, hi        uint64 // a span holding every live read entry's range
}

// reset forgets every entry.
func (m *rangeMemo) reset() { m.reads, m.writes, m.lo, m.hi = 0, 0, 0, 0 }

// rangeSlot returns the slot of a range starting at addr: a Fibonacci hash,
// so rows a power-of-two stride apart spread over the slots.
func rangeSlot(addr uint64) uint { return uint(addr * 0x9E3779B97F4A7C15 >> (64 - rangeBits)) }

// lookup returns the entry of (addr, words) and which of the masks hold it
// live: its read bit and its write bit (both zero on a miss).
func (m *rangeMemo) lookup(i uint, addr uint64, words int) (e *rangeEntry, read, write bool) {
	e = &m.e[i]
	if e.addr != addr || e.words != words {
		return e, false, false
	}
	return e, m.reads>>i&1 != 0, m.writes>>i&1 != 0
}

// setRead makes slot i the read entry of (addr, words) with owned owned
// words.
func (m *rangeMemo) setRead(i uint, addr uint64, words int, owned uint64) {
	m.e[i] = rangeEntry{addr, words, owned}
	m.writes &^= 1 << i
	if m.reads == 0 {
		m.lo, m.hi = addr, addr+uint64(words)
	} else {
		m.lo, m.hi = min(m.lo, addr), max(m.hi, addr+uint64(words))
	}
	m.reads |= 1 << i
}

// setWrite makes slot i the write entry of (addr, words).
func (m *rangeMemo) setWrite(i uint, addr uint64, words int) {
	m.e[i] = rangeEntry{addr, words, uint64(words)}
	m.reads &^= 1 << i
	m.writes |= 1 << i
}

// drop forgets every read entry overlapping [addr, addr+words). A range
// outside the live read entries' span costs two compares; otherwise the
// scan visits the live read entries and narrows the span to the ones
// that stay.
func (m *rangeMemo) drop(addr uint64, words int) {
	end := addr + uint64(words)
	if addr >= m.hi || end <= m.lo {
		return
	}
	lo, hi := ^uint64(0), uint64(0)
	for live := m.reads; live != 0; live &= live - 1 {
		i := uint(bits.TrailingZeros64(live))
		e := &m.e[i]
		if eEnd := e.addr + uint64(e.words); e.addr < end && addr < eEnd {
			m.reads &^= 1 << i
		} else {
			lo, hi = min(lo, e.addr), max(hi, eEnd)
		}
	}
	m.lo, m.hi = lo, hi
}

// verdictSlots is the size of the direct-mapped verdict cache. A write
// over words whose own lists hold the same k readers cycles through those
// k strands on every word (words sharing one list scan it once, see
// scanMemo); with k well under the slot count each reader costs one query
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
