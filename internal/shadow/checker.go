// The range checker: the one implementation of the access-history
// protocol over bulk accesses.
//
// The engine checks sealed batches of range accesses. Every op of a batch
// was made by one strand under one construct generation, so a Checker
// works batch by batch: Begin pins the batch's strand and generation and
// empties the per-batch caches, the ops run, and End folds the checker's
// counters into the History. Race events are buffered with their access
// kind as they are found and handed back through Events, so the caller
// decides where and when they are delivered.
//
// The inline pipeline owns one checker. Each consumer of the scheduled
// pool owns its own, and the detection scheduler supplies the invariants that make them safe together, with no
// locking on the per-word path:
//
//   - concurrently-checked batches (and the stolen chunks of one batch)
//     touch disjoint shadow pages, so the per-word protocol state each
//     checker reads and writes is exclusively its own while it runs;
//   - the reachability relation is frozen (pinned at one version) while
//     any checker is running, so every Precedes query is a read-only
//     snapshot read through the algorithm's QueryConcurrent-safe path;
//   - dependent batches — page overlap, same strand, or a conflicting
//     construct mutation between them — are never in flight together, so
//     each checker observes exactly the shadow state a serial run would.
//
// Pages are materialized under stripe locks (History.pageFor) and spill
// slots are allocated under the slab's mutex when the History was built
// for concurrent checkers. Everything else a checker touches is private:
// its last-page cache (kept across batches — pages never move), its
// verdict cache and epoch memo (reset every batch), its counters and its
// event buffer.
//
// EnableInstallAudit arms a debug assertion that re-checks the first
// invariant at access granularity: every op claims its exact page range
// and panics if the claim overlaps another checker's active claim. The
// audit is cheap (a few span comparisons per op) and runs in the -race
// CI suite, so a scheduler bug cannot silently corrupt shadow state.
package shadow

import (
	"futurerd/internal/core"
)

// Ctx bundles the reachability context of one batch: the reachability
// structure (queried directly, no per-query closure), the algorithm's
// epoch-transfer capability, and the construct generation the batch ran
// under. The engine keeps one prototype per run and fills in Gen per
// batch.
type Ctx struct {
	Reach core.Reach
	Gen   uint64
	// Epoch is the algorithm's epoch-transfer capability, or nil when the
	// algorithm does not offer one (the oracle recorder, the verify
	// cross-check); nil disables stamp verdict transfer and every
	// different-reader stamp falls back to the full writer query.
	Epoch core.EpochConcurrent
}

// RaceEvent is one race found while checking a batch: the racing word,
// the earlier access it raced with, and the kind of the batch's own
// access.
type RaceEvent struct {
	Addr  uint64
	Racer Racer
	Write bool // the racing access (the batch's own op) was a write
}

// PageClaim is one claimed page range of the install audit, inclusive.
type PageClaim struct {
	Lo, Hi uint64
}

// Checker runs the access-history protocol over the range ops of one
// batch at a time against a shared History. Checkers are
// single-goroutine; call Begin, optionally Claim, the ops, then End for
// each batch.
type Checker struct {
	h   *History
	id  int // consumer id, for the install audit's diagnostics
	ctx Ctx
	s   core.StrandID

	// Last-page cache: valid whenever lastPage != nil.
	lastPN   uint64
	lastPage *page

	// Verdict cache and epoch-transfer memo. Gen and the current strand
	// are fixed for the whole batch, so both are keyed by the predecessor
	// strand alone and reset by Begin.
	verdicts   verdictCache
	epochValid bool
	epochSrc   core.StrandID
	epochOK    bool

	events []RaceEvent
	claims []PageClaim // active audit claims (this batch's footprint)

	// The batch's counters, folded into the History by End.
	counters
}

// NewChecker returns a checker over h. id names the checker in install
// audit diagnostics (the consumer index; 0 for a lone checker).
func NewChecker(h *History, id int) *Checker {
	return &Checker{h: h, id: id}
}

// EnableInstallAudit arms the concurrent-install debug assertion on h:
// every checker op claims its page range and overlapping claims from two
// checkers panic. Call before any checker runs.
func (h *History) EnableInstallAudit() {
	h.auditOn = true
	h.auditClaims = make(map[int][]PageClaim)
}

// Begin starts one batch (or stolen chunk of one) made by strand s under
// ctx: the verdict cache and epoch memo start cold and the event buffer
// empties. ctx is copied; it must carry the batch's construct generation
// and the run's reachability structure.
func (c *Checker) Begin(ctx *Ctx, s core.StrandID) {
	c.ctx, c.s = *ctx, s
	c.verdicts.reset()
	c.epochValid = false
	c.events = c.events[:0]
}

// Claim registers the batch's footprint spans with the install audit
// (no-op when the audit is off): overlapping claims from two live
// checkers panic immediately, and every subsequent op of this batch must
// stay inside the claimed spans.
func (c *Checker) Claim(spans []PageClaim) {
	if !c.h.auditOn {
		return
	}
	c.claims = append(c.claims[:0], spans...)
	c.h.auditClaimSpans(c.id, c.claims)
}

// Events returns the batch's race events in the order found — op order,
// address order within an op — valid until the next Begin. Callers that
// deliver later must copy.
func (c *Checker) Events() []RaceEvent { return c.events }

// End completes the batch: counters fold into the History under its fold
// mutex (uncontended unless checkers run concurrently) and audit claims
// release. End is safe to call on a checker whose batch panicked midway.
func (c *Checker) End() {
	h := c.h
	h.foldMu.Lock()
	h.counters.add(&c.counters)
	h.foldMu.Unlock()
	c.counters = counters{}
	if h.auditOn {
		c.claims = c.claims[:0]
		h.auditRelease(c.id)
	}
}

// auditClaimSpans registers the footprint spans checker id is about to
// touch and panics if any overlaps another checker's active claim. Span
// lists are small (capped by the footprint summarizer), so the
// cross-check is a few dozen comparisons per batch.
func (h *History) auditClaimSpans(id int, spans []PageClaim) {
	h.auditMu.Lock()
	defer h.auditMu.Unlock()
	for other, held := range h.auditClaims {
		if other == id {
			continue
		}
		for _, sp := range held {
			for _, c := range spans {
				if c.Lo <= sp.Hi && sp.Lo <= c.Hi {
					panic(&AuditError{
						Kind:    "claim-overlap",
						Checker: id, Other: other,
						Op: c, Conflict: sp,
					})
				}
			}
		}
	}
	h.auditClaims[id] = append(h.auditClaims[id][:0], spans...)
}

// auditRelease drops every claim held by checker id.
func (h *History) auditRelease(id int) {
	h.auditMu.Lock()
	h.auditClaims[id] = h.auditClaims[id][:0]
	h.auditMu.Unlock()
}

// claim asserts one op's page range lies inside the batch's claimed
// footprint — a Summarize bug would otherwise let an op slip outside the
// range the scheduler reasoned about. Audit-armed histories only.
func (c *Checker) claim(addr uint64, words int) {
	lo := addr >> PageBits
	hi := (addr + uint64(words) - 1) >> PageBits
	for _, cl := range c.claims {
		if cl.Lo <= lo && hi <= cl.Hi {
			return
		}
	}
	panic(&AuditError{
		Kind:    "footprint-escape",
		Checker: c.id,
		Op:      PageClaim{Lo: lo, Hi: hi},
		// Copied: the thrown error outlives the checker's reused buffer.
		Claims: append([]PageClaim(nil), c.claims...),
	})
}

// pageMiss resolves pn through the History's page table and caches it.
// The cache test itself is inlined at every call site.
func (c *Checker) pageMiss(pn uint64) *page {
	p := c.h.pageFor(pn)
	c.lastPN, c.lastPage = pn, p
	return p
}

// precedes answers "u is sequentially before the batch's strand" through
// the verdict cache.
func (c *Checker) precedes(u core.StrandID) bool {
	return c.verdicts.precedes(u, c.s, c.ctx.Reach, &c.memoHits)
}

// epochOrdered answers "r's read-epoch stamp transfers its race-free
// verdict to the batch's strand" through the algorithm's EpochConcurrent
// capability, memoized on the stamp holder: a range whose words were all
// stamped by the same earlier reader pays one EpochOrdered call.
func (c *Checker) epochOrdered(r core.StrandID) bool {
	if c.ctx.Epoch == nil {
		return false
	}
	if c.epochValid && c.epochSrc == r {
		return c.epochOK
	}
	ok := c.ctx.Epoch.EpochOrdered(r, c.s)
	c.epochValid, c.epochSrc, c.epochOK = true, r, ok
	return ok
}

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
// A read of a word the strand was the last to read is likewise skipped
// (the read-epoch fast path), in any construct generation: its earlier
// read already proved the word's writer precedes it, the reader list
// already records it, any intervening write would have cleared the stamp
// — and the engine only keeps a strand current across generation bumps
// at empty syncs, which mutate nothing, so the proven verdict is still in
// force. The protocol would re-derive precisely the state the word is
// already in.
func (c *Checker) ReadRange(addr uint64, words int) {
	if words <= 0 {
		return
	}
	if c.h.auditOn {
		c.claim(addr, words)
	}
	c.reads += uint64(words)
	s := c.s
	if words == 1 {
		// One-word accesses (Array/Var Get) skip the segment machinery.
		pn := addr >> PageBits
		p := c.lastPage
		if p != nil && c.lastPN == pn {
			c.pageCacheHits++
		} else {
			p = c.pageMiss(pn)
		}
		w := &p.w[addr&pageMask]
		switch {
		case w.lastWriter == s:
			c.ownedSkips++ // epoch fast path: s reads its own last write
		case w.lastReader == s:
			c.readSharedSkips++ // read epoch: s's own stamp, still proven
		default:
			c.readWordSlow(w, p, addr)
		}
		return
	}
	for {
		slot := int(addr & pageMask)
		n := pageSize - slot
		if n > words {
			n = words
		}
		pn := addr >> PageBits
		p := c.lastPage
		if p != nil && c.lastPN == pn {
			c.pageCacheHits++
		} else {
			p = c.pageMiss(pn)
		}
		ws := p.w[slot : slot+n]
		for i := range ws {
			w := &ws[i]
			switch {
			case w.lastWriter == s:
				c.ownedSkips++ // epoch fast path: s reads its own last write
			case w.lastReader == s:
				c.readSharedSkips++ // read epoch: s's own stamp, still proven
			default:
				c.readWordSlow(w, p, addr+uint64(i))
			}
		}
		words -= n
		if words == 0 {
			return
		}
		addr += uint64(n)
	}
}

// readWordSlow runs the read protocol for a word the strand does not own
// (the owned-word and same-reader epoch fast paths are inlined at the
// call sites). If a different reader's stamp is present and the
// algorithm's EpochOrdered transfers its verdict, the writer query is
// skipped — the stamped reader already proved the (unchanged-since)
// writer precedes it, and the transfer promises the same verdict holds
// for this strand. Either way a race-free completion appends the strand
// to the reader list and re-stamps, so the word's racer-identity state
// matches the reference protocol exactly.
//
// With sampling armed, a read the free tiers could not resolve consults
// the sampler before paying the writer query; an unsampled read skips the
// verdict (a race here is missed) but still installs its reader state
// below, so later sampled queries see exact racer identity.
func (c *Checker) readWordSlow(w *word, p *page, addr uint64) {
	if w.lastWriter != core.NoStrand {
		if r := w.lastReader; r != core.NoStrand && c.epochOrdered(r) {
			c.epochHits++ // stamp verdict transfer: no writer query
		} else if c.h.smp.on && !c.sampleSlow(p, addr) {
			// Unsampled: fall through to the install below.
		} else if !c.precedes(w.lastWriter) {
			c.events = append(c.events, RaceEvent{addr, Racer{Prev: w.lastWriter, PrevWrite: true}, false})
			return // racy read is not appended (reference protocol), not stamped
		}
	}
	w.lastReader = c.s
	c.h.spill.addReader(w, c.s, &c.counters)
}

// WriteRange checks writes of words consecutive addresses starting at
// addr by the batch's strand, with the same page-segment structure as
// ReadRange.
//
// Fast path: a write to a word the strand already owns (it is the last
// writer and no readers intervened) is a no-op re-establishing the exact
// same state, so the protocol is skipped entirely.
func (c *Checker) WriteRange(addr uint64, words int) {
	if words <= 0 {
		return
	}
	if c.h.auditOn {
		c.claim(addr, words)
	}
	c.writes += uint64(words)
	s := c.s
	if words == 1 {
		// One-word accesses (Array/Var Set) skip the segment machinery.
		pn := addr >> PageBits
		p := c.lastPage
		if p != nil && c.lastPN == pn {
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
			c.writeSlow(w, p, addr)
		}
		return
	}
	for {
		slot := int(addr & pageMask)
		n := pageSize - slot
		if n > words {
			n = words
		}
		pn := addr >> PageBits
		p := c.lastPage
		if p != nil && c.lastPN == pn {
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
				c.writeSlow(w, p, addr+uint64(i))
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
//
// With sampling armed, the sampler is consulted before any query; an
// unsampled write skips every verdict but still installs itself (readers
// flushed, the strand becomes the last writer) — the exact end state of a
// race-free protocol run, so later sampled queries are unaffected.
func (c *Checker) writeSlow(w *word, p *page, addr uint64) {
	if c.h.smp.on && !c.sampleSlow(p, addr) {
		c.installWriter(w)
		return
	}
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
	} else {
		for _, r := range c.h.spill.readers(r0) {
			if r != s && !c.precedes(r) {
				c.installWriter(w)
				c.events = append(c.events, RaceEvent{addr, Racer{Prev: r, PrevWrite: false}, true})
				return
			}
		}
	}
	c.installWriter(w)
}

// installWriter completes a write: the reader list is flushed and the
// strand becomes the last writer.
func (c *Checker) installWriter(w *word) {
	c.h.spill.flush(w, &c.counters)
	w.lastWriter = c.s
}

// TouchRange decodes words consecutive addresses starting at addr into
// their page and slot indices without maintaining or querying the access
// history — the "instrumentation" configuration of the paper's
// evaluation: the memory hook fires and pays the dispatch and
// address-decoding cost, nothing more. The decoded indices are folded
// into a checksum so the compiler cannot elide the work. It touches no
// shadow page, so it needs no audit claim.
func (c *Checker) TouchRange(addr uint64, words int) {
	sum := c.touched
	for ; words > 0; words-- {
		sum += (addr >> PageBits) ^ (addr & pageMask)
		addr++
	}
	c.touched = sum
}
