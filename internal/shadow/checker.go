// The range checker: the one implementation of the access-history
// protocol over bulk accesses.
//
// The engine checks sealed batches of range accesses. Every op of a batch
// was made by one strand under one construct generation, so a Checker
// works batch by batch: Begin pins the batch's strand and empties the
// per-batch caches, the ops run, and End folds the checker's counters
// into the History. Race events are buffered with their access
// kind as they are found and handed back through Events, so the caller
// decides where and when they are delivered.
//
// A run owns one checker, built by the engine and used by whichever
// goroutine processes batches — the engine goroutine in the inline
// pipeline or the async consumer — so nothing on the per-word path locks.
// Everything a checker keeps between ops is its own: its page-set cache
// (kept across batches — pages never move), its per-batch memos (the
// range memo, the verdict cache and the scan memo, all reset by Begin),
// its segment transition memo, its counters and its event buffer.
package shadow

import "futurerd/internal/core"

// RaceEvent is one race found while checking a batch: the racing word,
// the earlier access it raced with, and the kind of the batch's own
// access.
type RaceEvent struct {
	Addr  uint64
	Racer Racer
	Write bool // the racing access (the batch's own op) was a write
}

// PageSetSlots is the size of a checker's page-set cache: a direct-mapped
// set of page-table lookups, indexed by the page number's low bits. A
// sequential scan keeps hitting one slot; a strand that alternates
// between arrays, as the wavefront kernels do on every cell, hits as
// long as its arrays' pages fall in distinct slots. The size is measured:
// on the benchmark's lcs, bst and mm workloads 32 slots (512 bytes) miss
// on under 3% of page lookups, where 8 slots miss on 7%, 51% and 50%.
const PageSetSlots = 32

// pageSlot is one entry of the page-set cache: page number pn resolves
// to p, and the entry is empty while p is nil.
type pageSlot struct {
	pn uint64
	p  *page
}

// Checker runs the access-history protocol over the range ops of one
// batch at a time against a History. Checkers are single-goroutine; call
// Begin, the ops, then End for each batch.
type Checker struct {
	h     *History
	reach core.Reach // queried directly, no per-query closure
	s     core.StrandID

	// The page-set cache (see PageSetSlots), kept across batches.
	pages [PageSetSlots]pageSlot

	// Verdict cache. The relation and the current strand are fixed for
	// the whole batch, so it is keyed by the predecessor strand alone and
	// reset by Begin.
	verdicts verdictCache

	// share is the reader-list transition memo of the page segment being
	// read, settled at the segment's end; scans is the write-side scan
	// memo of inflated lists, and ranges the memo of settled multi-word
	// ranges, both reset by Begin.
	share  shareMemo
	scans  scanMemo
	ranges rangeMemo

	events []RaceEvent

	// The batch's counters, folded into the History by End.
	counters
}

// NewChecker returns a checker over h that asks reach whether an earlier
// access precedes the batch's strand.
func NewChecker(h *History, reach core.Reach) *Checker {
	return &Checker{h: h, reach: reach}
}

// Begin starts one batch made by strand s: the range memo, the verdict
// cache and the scan memo start cold and the event buffer empties.
func (c *Checker) Begin(s core.StrandID) {
	c.s = s
	c.ranges.reset()
	c.verdicts.reset()
	c.scans.reset()
	c.events = c.events[:0]
}

// Events returns the batch's race events in the order found — op order,
// address order within an op — valid until the next Begin. Callers that
// deliver later must copy.
func (c *Checker) Events() []RaceEvent { return c.events }

// End completes the batch: its counters fold into the History.
func (c *Checker) End() {
	c.settle()
	c.h.counters.add(&c.counters)
	c.counters = counters{}
}

// pageMiss resolves pn through the History's page table and fills its
// slot of the page-set cache. The cache probe itself is spelled out at
// every call site: a shared helper is over the inliner's budget.
func (c *Checker) pageMiss(pn uint64) *page {
	p := c.h.pageFor(pn)
	c.pages[pn&(PageSetSlots-1)] = pageSlot{pn, p}
	return p
}

// probePages probes the page-set cache once per page segment of the
// range, exactly as the range loops do, so a range-memo hit leaves the
// cache and PageCacheHits as the loops would. The range's pages exist:
// the memoized op touched them.
func (c *Checker) probePages(addr uint64, words int) {
	end := addr + uint64(words)
	for {
		pn := addr >> PageBits
		if e := &c.pages[pn&(PageSetSlots-1)]; e.p != nil && e.pn == pn {
			c.pageCacheHits++
		} else {
			c.pageMiss(pn)
		}
		if addr = (pn + 1) << PageBits; addr >= end {
			return
		}
	}
}

// precedes answers "u is sequentially before the batch's strand" through
// the verdict cache.
func (c *Checker) precedes(u core.StrandID) bool {
	return c.verdicts.precedes(u, c.s, c.reach, &c.memoHits)
}

// recorded reports whether the inflated reader list r0 records the
// batch's strand: as its first or last entry, the entries
// spillSlab.step treats as recorded.
func (c *Checker) recorded(r0 core.StrandID) bool { return c.h.spill.recorded(r0, c.s) }

// ReadRange checks reads of words consecutive addresses starting at addr
// by the batch's strand, splitting at page boundaries so the page lookup
// runs once per page segment. Every racing word is buffered as an event
// (with the racer the reference protocol would find); race-free words
// update the reader lists.
//
// Fast paths: a read of a word whose last writer is the strand itself is
// race-free and skipped without touching the reader list. That loses no
// races: any later access racing with this read also races with the
// strand's own earlier write, which stays in the history and is checked
// first by both Read and Write — so every verdict and every reported
// racer is unchanged.
//
// A read of a word whose reader list already records the strand is
// likewise skipped (the read-shared fast path), in any construct
// generation: the strand's earlier race-free read proved the word's
// writer precedes it, any intervening write would have emptied the list
// — and the engine only keeps a strand current across generation bumps
// at empty syncs, which mutate nothing, so the proven verdict is still in
// force. The protocol would re-derive precisely the state the word is
// already in.
//
// Run path: within a page segment, a word that needs the protocol heads a
// run of the consecutive words after it in the same 8-byte state. The
// head runs the protocol; the rest of the run takes the head's new state
// and the counters the per-word protocol would give it (see readRun). A
// run stops at the first word in another state, and there is none when
// the head races (the words after it go one by one and report their own
// races).
//
// Memo path: an exact repeat of a multi-word range the strand already
// settled in this batch skips the per-word loop (see rangeMemo). A write
// entry counts every word as an owned skip; a read entry counts the
// owned words its first read saw as owned skips and the rest as
// read-shared skips, which is what the loop would find.
func (c *Checker) ReadRange(addr uint64, words int) {
	if words <= 0 {
		return
	}
	c.reads += uint64(words)
	s := c.s
	if words == 1 {
		// One-word accesses (Array/Var Get) skip the segment machinery.
		pn := addr >> PageBits
		e := &c.pages[pn&(PageSetSlots-1)]
		p := e.p
		if p != nil && e.pn == pn {
			c.pageCacheHits++
		} else {
			p = c.pageMiss(pn)
		}
		w := &p.w[addr&pageMask]
		switch r0 := w.reader0; {
		case w.lastWriter == s:
			c.ownedSkips++ // epoch fast path: s reads its own last write
		case r0 == s || r0&spillFlag != 0 && c.recorded(r0):
			c.readSharedSkips++ // s's list entry: its verdict still holds
		default:
			c.readWordSlow(w, addr)
			c.settle()
		}
		return
	}
	if words < minRangeWords {
		c.readSegments(addr, words)
		return
	}
	i := rangeSlot(addr)
	if e, read, write := c.ranges.lookup(i, addr, words); read || write {
		c.ownedSkips += e.owned
		c.readSharedSkips += uint64(words) - e.owned
		c.probePages(addr, words)
		return
	}
	owned, events := c.ownedSkips, len(c.events)
	c.readSegments(addr, words)
	if len(c.events) == events {
		c.ranges.setRead(i, addr, words, c.ownedSkips-owned)
	}
}

// readSegments is ReadRange's multi-word path: one page lookup per page
// segment, then the per-word loop over the segment's slots, settling the
// segment's sharing memo at its end.
func (c *Checker) readSegments(addr uint64, words int) {
	s := c.s
	for {
		slot := int(addr & pageMask)
		n := pageSize - slot
		if n > words {
			n = words
		}
		pn := addr >> PageBits
		e := &c.pages[pn&(PageSetSlots-1)]
		p := e.p
		if p != nil && e.pn == pn {
			c.pageCacheHits++
		} else {
			p = c.pageMiss(pn)
		}
		ws := p.w[slot : slot+n]
		for i := 0; i < len(ws); i++ {
			w := &ws[i]
			switch r0 := w.reader0; {
			case w.lastWriter == s:
				c.ownedSkips++ // epoch fast path: s reads its own last write
			case r0 == s || r0&spillFlag != 0 && c.recorded(r0):
				c.readSharedSkips++ // s's list entry: its verdict still holds
			default:
				i += c.readRun(ws[i:], addr+uint64(i))
			}
		}
		c.settle() // sharing never crosses a page
		words -= n
		if words == 0 {
			return
		}
		addr += uint64(n)
	}
}

// readRun checks ws[0] through readWordSlow, then gives every following
// word still in ws[0]'s old state ws[0]'s new state, and returns how many
// words it gave it. That is exact: what readWordSlow does to a word
// depends only on the word's state, the batch's strand and the batch's
// memos, and ws[0] has just set those memos for this state — its writer
// verdict is in the verdict cache, and the segment's sharing memo maps
// its old reader0 to the new one. Each such word also gets the counters
// the per-word protocol would add for it: a verdict-cache hit, and a
// reader append or one more word on the sharing memo. A racing ws[0]
// leaves the following words to the caller.
func (c *Checker) readRun(ws []word, addr uint64) int {
	pre, events := ws[0], len(c.events)
	c.readWordSlow(&ws[0], addr)
	if len(c.events) != events {
		return 0
	}
	post, run, k := ws[0], ws[1:], 0
	for k < len(run) && run[k] == pre {
		run[k] = post
		k++
	}
	if k == 0 {
		return 0
	}
	n := uint64(k)
	if pre.lastWriter != core.NoStrand {
		c.memoHits += n // the verdict cache answers for the same writer
	}
	if pre.reader0 == core.NoStrand {
		c.readerAppends += n
	} else {
		c.share.n += n // the sharing memo's from is now pre.reader0
	}
	return k
}

// readWordSlow runs the read protocol for a word the strand does not own
// and whose reader list does not record it (those fast paths are inlined
// at the call sites): a read races iff the word's writer does not precede
// the strand, and a race-free read appends the strand to the reader list.
func (c *Checker) readWordSlow(w *word, addr uint64) {
	if w.lastWriter != core.NoStrand && !c.precedes(w.lastWriter) {
		c.events = append(c.events, RaceEvent{addr, Racer{Prev: w.lastWriter, PrevWrite: true}, false})
		return // racy read is not appended (reference protocol)
	}
	c.h.spill.addShared(w, c.s, &c.share, &c.counters, &c.scans)
}

// settle ends the segment's reader-list transition memo (see shareMemo).
func (c *Checker) settle() { c.h.spill.settle(&c.share, &c.counters, &c.scans) }

// WriteRange checks writes of words consecutive addresses starting at
// addr by the batch's strand, with the same page-segment structure as
// ReadRange.
//
// Fast path: a write to a word the strand already owns (it is the last
// writer and no readers intervened) is a no-op re-establishing the exact
// same state, so the protocol is skipped entirely.
//
// Memo path: an exact repeat of a multi-word write the strand already made
// in this batch finds every word owned, so it counts one owned skip per
// word and touches none (see rangeMemo). A write that runs the protocol
// may turn a word the strand had recorded as a reader into an owned one,
// so it drops the range memo's read entries that overlap it.
func (c *Checker) WriteRange(addr uint64, words int) {
	if words <= 0 {
		return
	}
	c.writes += uint64(words)
	s := c.s
	if words == 1 {
		// One-word accesses (Array/Var Set) skip the segment machinery.
		pn := addr >> PageBits
		e := &c.pages[pn&(PageSetSlots-1)]
		p := e.p
		if p != nil && e.pn == pn {
			c.pageCacheHits++
		} else {
			p = c.pageMiss(pn)
		}
		w := &p.w[addr&pageMask]
		if w.reader0 == core.NoStrand && (w.lastWriter == s || w.lastWriter == core.NoStrand) {
			// Epoch fast path: owner rewrite or first write to a fresh
			// word with no readers — no protocol to run.
			w.lastWriter = s
			c.ownedSkips++
		} else {
			c.writeSlow(w, addr)
			c.ranges.drop(addr, 1)
		}
		return
	}
	if words < minRangeWords {
		c.writeSegments(addr, words)
		c.ranges.drop(addr, words)
		return
	}
	i := rangeSlot(addr)
	if e, _, write := c.ranges.lookup(i, addr, words); write {
		c.ownedSkips += e.owned
		c.probePages(addr, words)
		return
	}
	c.writeSegments(addr, words)
	c.ranges.drop(addr, words)
	c.ranges.setWrite(i, addr, words)
}

// writeSegments is WriteRange's multi-word path: one page lookup per page
// segment, then the per-word loop over the segment's slots.
func (c *Checker) writeSegments(addr uint64, words int) {
	s := c.s
	for {
		slot := int(addr & pageMask)
		n := pageSize - slot
		if n > words {
			n = words
		}
		pn := addr >> PageBits
		e := &c.pages[pn&(PageSetSlots-1)]
		p := e.p
		if p != nil && e.pn == pn {
			c.pageCacheHits++
		} else {
			p = c.pageMiss(pn)
		}
		ws := p.w[slot : slot+n]
		for i := range ws {
			w := &ws[i]
			// Epoch fast path: with no readers to check, a rewrite by the
			// owner or a first write to a fresh word runs no protocol —
			// the reference would make zero queries and end in this exact
			// state.
			if w.reader0 == core.NoStrand && (w.lastWriter == s || w.lastWriter == core.NoStrand) {
				w.lastWriter = s
				c.ownedSkips++
			} else {
				c.writeSlow(w, addr+uint64(i))
			}
		}
		words -= n
		if words == 0 {
			return
		}
		addr += uint64(n)
	}
}

// writeSlow is the full write protocol for one word. Like the reference
// Write, a racing write installs itself after reporting so one logical
// race cannot re-report on every later access of the address.
func (c *Checker) writeSlow(w *word, addr uint64) {
	s := c.s
	if prev := w.lastWriter; prev != core.NoStrand && prev != s && !c.precedes(prev) {
		c.installWriter(w)
		c.events = append(c.events, RaceEvent{addr, Racer{Prev: prev, PrevWrite: true}, true})
		return
	}
	if r0 := w.reader0; r0&spillFlag == 0 {
		if r0 != core.NoStrand && r0 != s && !c.precedes(r0) {
			c.installWriter(w)
			c.events = append(c.events, RaceEvent{addr, Racer{Prev: r0, PrevWrite: false}, true})
			return
		}
	} else if r := c.scan(r0); r != core.NoStrand {
		c.installWriter(w)
		c.events = append(c.events, RaceEvent{addr, Racer{Prev: r, PrevWrite: false}, true})
		return
	}
	c.installWriter(w)
}

// scan returns the first reader of the inflated list r0 that does not
// precede the batch's strand, or NoStrand. The result is memoized per
// batch, so words that share the list scan it once; a memoized scan
// counts its verdict lookups as cache hits, as rescanning would.
func (c *Checker) scan(r0 core.StrandID) core.StrandID {
	e, ok := c.scans.lookup(r0)
	if ok {
		c.memoHits += uint64(e.calls)
		return e.racer
	}
	s, racer, calls := c.s, core.NoStrand, uint32(0)
	for _, r := range c.h.spill.readers(r0) {
		if r != s {
			calls++
			if !c.precedes(r) {
				racer = r
				break
			}
		}
	}
	*e = scanEntry{list: r0, racer: racer, calls: calls, stamp: c.scans.stamp}
	return racer
}

// installWriter completes a write: the reader list is flushed and the
// strand becomes the last writer.
func (c *Checker) installWriter(w *word) {
	c.h.spill.flush(w, &c.counters, &c.scans)
	w.lastWriter = c.s
}

// TouchRange decodes words consecutive addresses starting at addr into
// their page and slot indices without maintaining or querying the access
// history — the "instrumentation" configuration of the paper's
// evaluation: the memory hook fires and pays the dispatch and
// address-decoding cost, nothing more. The decoded indices are folded
// into a checksum so the compiler cannot elide the work.
func (c *Checker) TouchRange(addr uint64, words int) {
	sum := c.touched
	for ; words > 0; words-- {
		sum += (addr >> PageBits) ^ (addr & pageMask)
		addr++
	}
	c.touched = sum
}
