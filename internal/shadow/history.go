// Package shadow implements the detector's access history (§3): for every
// shadow word it stores the most recent writer strand plus a reader list
// that is flushed on each race-free write, keeping the total number of
// reachability queries bounded by O(number of memory accesses).
//
// The table is organised like FutureRD's: a two-level flat structure where
// the high bits of the address select a page and the low bits a slot
// inside a densely allocated page. Addresses come from the library's
// virtual address allocator; one shadow word covers one element, the
// analogue of FutureRD's 4-byte granularity (all the paper's benchmarks
// make accesses of at least 4 bytes).
//
// # Fast paths
//
// The per-access cost is dominated by (a) locating the shadow word and
// (b) the reachability query, so both have dedicated fast paths:
//
//   - Page location is a flat two-level table (directory slice → page
//     array) instead of a map, fronted by a page-set cache: a
//     direct-mapped set of PageSetSlots recent lookups, indexed by the
//     page number's low bits and kept across batches. A sequential scan
//     resolves its page once per 4096 words, and a strand that
//     alternates between arrays, as a wavefront cell does, keeps each
//     array's page in its own slot.
//
//   - Checker.ReadRange/WriteRange split a bulk access at page
//     boundaries, probe the page-set cache inline, and run a tight
//     per-word loop over the page's slot array.
//
//   - Run-at-a-time reads: in a multi-word read, a word that needs the
//     protocol heads a run of the following words of its page segment
//     that are in the same 8-byte state. What the protocol does to a
//     word depends only on that state, the batch's strand and the
//     batch's memos, which the head has just set for this state, so the
//     rest of the run takes the head's new state and its word-logical
//     counters without repeating the protocol. A run stops at any change
//     of state; a racing head starts none (the words after it are
//     checked one by one).
//
//   - Range memo: within one batch, an exact repeat of a multi-word op
//     the strand already settled skips the per-word loop (rangeMemo).
//     After a write every word of the range is owned with no readers, and
//     the strand's own later accesses keep it so; after a race-free read
//     each word is owned or records the strand, and only a write that
//     runs the protocol on a recorded word changes which, so such a write
//     drops the read entries it overlaps. A repeat therefore counts the
//     skips the loop would find: one owned skip per word of a write
//     entry; the owned words its first read saw, and read-shared skips
//     for the rest, of a read entry. It still probes the page-set cache
//     once per page segment, so every counter is the loop's. mm's base
//     case re-reads each B row and re-reads and rewrites its C row 16
//     times per batch, so 87% of its multi-word ops are answered here.
//     Ops narrower than minRangeWords keep the loop (lcs's average about
//     two words).
//
//   - Epoch-style ownership: a strand re-accessing a word it already owns
//     (it is the last writer, and for writes no readers intervened) is
//     race-free by definition and skips the protocol entirely — the
//     FastTrack "same epoch" observation transplanted to strand ids.
//
//   - Read-shared skips: a strand re-reading a word whose reader list
//     already records it skips the protocol. A strand is recorded only
//     by a race-free read, and a write install empties the list, so the
//     word's writer was proven to precede the strand and has not changed
//     since; the protocol would re-derive exactly the state the word is
//     in. This holds in any later construct generation: the engine only
//     keeps a strand current across a generation bump at an empty sync,
//     which mutates nothing. The word's read state is a two-state
//     machine: *single-reader* (the inline reader0 slot) inflating to
//     *inflated* (the spill list, entered only on genuine read contention
//     — a second distinct reader between writes) and deflating back on
//     the next write-then-read cycle. The skip tests the entries the
//     list's append already treats as recorded: reader0, or the first or
//     last entry of the spill list, which it reads directly on every
//     test.
//
//   - Inflated reader lists live in a slab (spill.go), not a map: an
//     inflated word's reader0 holds its slot index, so appending a reader,
//     checking the list on a write and flushing it each cost one slice
//     index. Freed slots are recycled with their capacity.
//
//   - Reader lists are shared copy-on-write across a page segment, after
//     Wilcox et al.'s array shadow state compression (ASE 2015): the
//     words of one range read that go through the same transition (old
//     reader0 plus the new reader) end up pointing at one slot, so a bulk
//     read by k strands pays one inflation, append or copy per page
//     segment instead of one per word. Slots are reference-counted and a
//     list grows in place only while one word holds it. A write scans
//     each shared list once per batch (Checker.scan). Counters stay
//     word-logical: every word counts the appends, inflations and spill
//     entries the per-word protocol would give it.
//
//   - Reachability verdicts are cached per batch: a small direct-mapped
//     cache keyed by the predecessor strand answers repeated "u precedes
//     the current strand" queries, so a write over words that share k
//     readers pays k Precedes calls, not k per word. A batch has one
//     strand and one construct generation, and the cache is reset at
//     every batch boundary, so a stale verdict can never be observed (the
//     reachability relation only mutates at constructs, and strand ids
//     are never reused).
//
// The fast paths are verdict-preserving: for every access they report a
// race if and only if the word-at-a-time reference protocol (Read/Write
// below) does, with the same racing strand — see the differential fuzz
// test FuzzRangeMatchesReference.
//
// # One checker
//
// The range protocol lives in one type, Checker (checker.go). A run owns
// one checker, used by whichever goroutine processes batches — the engine
// goroutine in the inline pipeline or the async consumer — so the History
// is only ever touched by one goroutine and needs no locking. The checker keeps its page-set cache, verdict
// cache, reader-list memos and counters, buffers race events per batch,
// and folds its counters into the History when a batch ends.
package shadow

import (
	"unsafe"

	"futurerd/internal/core"
	"futurerd/internal/faultinject"
)

// PageBits sets the page size: 2^PageBits words per page.
const PageBits = 12

const pageSize = 1 << PageBits
const pageMask = pageSize - 1

// dirBits sets the directory fan-out of the flat page table: each
// directory node covers 2^dirBits consecutive pages.
const dirBits = 10

const dirSize = 1 << dirBits
const dirMask = dirSize - 1

// maxDirs bounds the root slice of the flat table (it is grown densely, so
// a huge address would otherwise allocate a huge root). Pages whose
// directory index is beyond the bound — addresses ≥ 2^(PageBits+dirBits+20),
// which the library's dense allocator never produces — spill into a map.
const maxDirs = 1 << 20

// word is the shadow state of one address: the last writer and the first
// reader since that write — 8 pointer-free bytes. Keeping pages free of
// pointers matters as much as the lookup structure: a page allocates in a
// noscan span, so the garbage collector never walks shadow memory, and
// first-touch zeroing clears 32KB instead of a pointer-scanned multiple.
// The uncommon case of several distinct readers between two writes spills
// to a list in History.spill (the inflated state): reader0 then holds
// spillFlag plus the list's slot index, and the first reader moves to
// element 0 of the list. Words of one page with equal reader lists may
// hold the same slot; the list is copied before it changes under any of
// them (spillSlab).
type word struct {
	lastWriter core.StrandID
	reader0    core.StrandID
}

// WordBytes is the resident footprint of one shadow word; the benchmark
// harness multiplies it by the touched-page word count to report shadow
// bytes. The blank array below fails to compile if the word layout drifts.
const WordBytes = 8

var _ [1]struct{} = [unsafe.Sizeof(word{}) - WordBytes + 1]struct{}{}

// spillFlag marks an inflated word: its reader list lives in
// History.spill, and the low 31 bits of reader0 are the list's slot
// index. The flag occupies the top bit of reader0, so reader0 can name
// either a strand or a slot, and strand ids are capped at 2^31-1
// (core.MaxStrand; the engine fails closed at the cap).
const spillFlag core.StrandID = 1 << 31

// page is one densely allocated run of shadow words and nothing else:
// pointer-free, so it allocates in a noscan span.
type page struct {
	w [pageSize]word
}

// A page is exactly its words, 32 KiB, which is a size class of its own.
// One more page-level field would push every page into the 40 KiB class,
// 8 KiB more per touched page; the blank array fails to compile if the
// page layout drifts.
var _ [1]struct{} = [unsafe.Sizeof(page{}) - pageSize*WordBytes + 1]struct{}{}

// directory is one node of the flat page table's second level.
type directory [dirSize]*page

// History is the access history for one detection run.
type History struct {
	// dirs is the flat table root, indexed by pageNumber >> dirBits and
	// grown densely (once per dirSize pages).
	dirs []*directory

	overflow map[uint64]*page // pages beyond maxDirs directories

	// spill holds the reader lists of inflated words (spill.go).
	spill spillSlab

	// Counters for the benchmark harness: the reference protocol adds to
	// them directly, checkers fold theirs in after each batch.
	// touchedPages counts page materializations.
	counters
	touchedPages uint64

	// faults is the run's fault-injection plan (nil in production): its
	// only probe here is PageFail, fired at page materialization to model
	// a failed shadow allocation. See SetFaults.
	faults *faultinject.Plan
}

// counters is the additive counter set kept by every checker and folded
// into the History after each batch.
type counters struct {
	reads, writes   uint64
	readerAppends   uint64
	readerFlushes   uint64
	pageCacheHits   uint64
	ownedSkips      uint64
	readSharedSkips uint64
	memoHits        uint64
	epochInflations uint64 // single-reader → inflated (first spill) transitions
	epochDeflations uint64 // inflated → flushed (write install) transitions
	spillEntries    uint64 // live spill entries, word-logical (a signed delta in a checker)
	touched         uint64 // TouchRange checksum; keeps the instr config honest
}

// add folds o into c.
func (c *counters) add(o *counters) {
	c.reads += o.reads
	c.writes += o.writes
	c.readerAppends += o.readerAppends
	c.readerFlushes += o.readerFlushes
	c.pageCacheHits += o.pageCacheHits
	c.ownedSkips += o.ownedSkips
	c.readSharedSkips += o.readSharedSkips
	c.memoHits += o.memoHits
	c.epochInflations += o.epochInflations
	c.epochDeflations += o.epochDeflations
	c.spillEntries += o.spillEntries
	c.touched += o.touched
}

// NewHistory returns an empty access history.
func NewHistory() *History { return &History{} }

// SetFaults arms fault injection on the history (nil disarms — the
// default; every probe is then one nil check). Call before any access.
func (h *History) SetFaults(p *faultinject.Plan) { h.faults = p }

// pageFor returns the page holding page number pn, materializing it on
// first touch. Overflow pages (addresses the dense allocator never
// produces) live in a map. Checkers front it with their own page-set
// cache.
//
// The PageFail probe fires at materialization: a firing plan turns it into
// a panic, modeling a failed shadow-page allocation, which the detection
// pipeline's recover shell converts into a structured PipelineError —
// allocation failure anywhere in the shadow layer fails the run closed.
func (h *History) pageFor(pn uint64) *page {
	di := pn >> dirBits
	if di >= maxDirs {
		return h.overflowPage(pn)
	}
	for uint64(len(h.dirs)) <= di {
		h.dirs = append(h.dirs, nil)
	}
	d := h.dirs[di]
	if d == nil {
		d = new(directory)
		h.dirs[di] = d
	}
	e := &d[pn&dirMask]
	if *e == nil {
		*e = h.newPage()
	}
	return *e
}

// overflowPage returns the overflow page pn, materializing it.
func (h *History) overflowPage(pn uint64) *page {
	if h.overflow == nil {
		h.overflow = make(map[uint64]*page)
	}
	p := h.overflow[pn]
	if p == nil {
		p = h.newPage()
		h.overflow[pn] = p
	}
	return p
}

// newPage allocates one shadow page behind the PageFail probe.
func (h *History) newPage() *page {
	if h.faults.Fire(faultinject.PageFail) {
		panic(faultinject.Panic{Point: faultinject.PageFail})
	}
	h.touchedPages++
	return new(page)
}

// Racer is the pair of conflicting strands found by Read or Write.
type Racer struct {
	Prev      core.StrandID
	PrevWrite bool
}

// Read processes a read of addr by strand s. It returns the racing
// previous access (a write) and true if the read races, after which the
// caller reports and detection continues. reach answers "u precedes the
// current strand".
//
// Protocol (§3): a read races iff it is logically parallel with the last
// writer; otherwise the reader is appended to the reader list.
//
// Read and Write are the word-at-a-time reference protocol; the engine's
// hot path is Checker.ReadRange/WriteRange, which must stay
// verdict-equivalent.
func (h *History) Read(addr uint64, s core.StrandID, precedes func(u core.StrandID) bool) (Racer, bool) {
	h.reads++
	w := h.wordFor(addr)
	if w.lastWriter != core.NoStrand && w.lastWriter != s && !precedes(w.lastWriter) {
		return Racer{Prev: w.lastWriter, PrevWrite: true}, true
	}
	// Append s to the reader list, deduplicating the common case of the
	// same strand re-reading the location between writes.
	h.spill.addReader(w, s, &h.counters)
	return Racer{}, false
}

// Write processes a write of addr by strand s. It returns the first racing
// previous access found (a reader or the last writer) and true if the
// write races. On a race-free write the reader list is emptied and s
// becomes the last writer; the paper shows this loses no races because
// anything parallel with a flushed reader that runs later is also parallel
// with s.
//
// A racing write also installs itself (readers flushed, s becomes the
// last writer) after the race is reported. Leaving the old state in place
// would make every later access of the address re-race against the same
// stale writer, so one logical race would re-report on each subsequent
// access — quadratic RaceCount growth on a racy scan. Installing trades
// that cascade for the standard post-race imprecision every shadow-state
// detector accepts once a location has raced: detection continues as if
// the racing write were ordinary.
func (h *History) Write(addr uint64, s core.StrandID, precedes func(u core.StrandID) bool) (Racer, bool) {
	h.writes++
	w := h.wordFor(addr)
	if prev := w.lastWriter; prev != core.NoStrand && prev != s && !precedes(prev) {
		h.installWriter(w, s)
		return Racer{Prev: prev, PrevWrite: true}, true
	}
	if r0 := w.reader0; r0&spillFlag == 0 {
		if r0 != core.NoStrand && r0 != s && !precedes(r0) {
			h.installWriter(w, s)
			return Racer{Prev: r0, PrevWrite: false}, true
		}
	} else {
		for _, r := range h.spill.readers(r0) {
			if r != s && !precedes(r) {
				h.installWriter(w, s)
				return Racer{Prev: r, PrevWrite: false}, true
			}
		}
	}
	h.installWriter(w, s)
	return Racer{}, false
}

func (h *History) wordFor(addr uint64) *word {
	return &h.pageFor(addr >> PageBits).w[addr&pageMask]
}

// installWriter completes a write: the reader list is flushed and s
// becomes the last writer. Called for race-free and racing writes alike
// (see Write).
func (h *History) installWriter(w *word, s core.StrandID) {
	h.spill.flush(w, &h.counters, nil)
	w.lastWriter = s
}

// Stats describes access-history traffic.
type Stats struct {
	Reads, Writes uint64
	ReaderAppends uint64
	ReaderFlushes uint64
	TouchedPages  uint64
	// PageCacheHits counts page lookups resolved by a checker's page-set
	// cache.
	PageCacheHits uint64
	// OwnedSkips counts accesses short-circuited by the epoch-style
	// ownership fast path (no protocol run, no reachability query).
	OwnedSkips uint64
	// ReadSharedSkips counts reads short-circuited by the read-shared
	// fast path: the word's reader list already recorded the strand, so
	// its proven verdict was reused and no protocol ran. Disjoint from
	// OwnedSkips (an access is counted by at most one skip counter).
	ReadSharedSkips uint64
	// MemoHits counts reachability queries answered by the per-batch
	// verdict cache instead of the reachability structure.
	MemoHits uint64
	// EpochHits is always zero: it counted the reads whose writer query
	// a removed read-epoch verdict transfer answered, and stays only so
	// existing consumers of Stats keep compiling.
	EpochHits uint64
	// EpochInflations counts single-reader → inflated transitions (a
	// word's reader list outgrowing the inline slot into the spill list);
	// EpochDeflations counts the inverse (a write install flushing an
	// inflated word back toward the single-reader state).
	EpochInflations uint64
	EpochDeflations uint64
	// SpillEntries is the number of reader entries of inflated words
	// beyond each word's first reader at the time Stats was taken — the
	// live footprint of inflated words under the per-word protocol. It
	// counts every word's list, so words that share one slot each count
	// its entries; the slab itself holds the shared list once.
	SpillEntries uint64
	// ParRanges and ParChunks are always zero: they counted the fan-outs
	// of the removed intra-range worker pool, and stay only so existing
	// consumers of Stats keep compiling.
	ParRanges uint64
	ParChunks uint64
}

// Stats returns the history's counters. Called on a quiescent history
// (after the run, or between batches).
func (h *History) Stats() Stats {
	return Stats{
		Reads: h.reads, Writes: h.writes,
		ReaderAppends:   h.readerAppends,
		ReaderFlushes:   h.readerFlushes,
		TouchedPages:    h.touchedPages,
		PageCacheHits:   h.pageCacheHits,
		OwnedSkips:      h.ownedSkips,
		ReadSharedSkips: h.readSharedSkips,
		MemoHits:        h.memoHits,
		EpochInflations: h.epochInflations,
		EpochDeflations: h.epochDeflations,
		SpillEntries:    h.spillEntries,
	}
}
