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
//     array) instead of a map, fronted by a last-page cache, so a
//     sequential scan resolves its page once per 4096 words.
//
//   - Checker.ReadRange/WriteRange split a bulk access at page
//     boundaries, test the last-page cache inline, and run a tight
//     per-word loop over the page's slot array.
//
//   - Epoch-style ownership: a strand re-accessing a word it already owns
//     (it is the last writer, and for writes no readers intervened) is
//     race-free by definition and skips the protocol entirely — the
//     FastTrack "same epoch" observation transplanted to strand ids.
//
//   - Carried-forward read epochs: each word additionally carries a
//     lastReader stamp recorded when a read completes race-free, and the
//     stamp stays valid *across* construct generations — it dies only at
//     the next write install (spillSlab.flush), never at a spawn or join.
//     The word's read state is a two-state machine: *single-reader* (the
//     inline reader0 slot plus the stamp) inflating to *inflated* (the
//     spill list, entered only on genuine read contention — a second
//     distinct reader between writes) and deflating back on the next
//     write-then-read cycle. The stamp is consulted twice:
//
//     1. A strand re-reading a word it was the last to read skips the
//     protocol outright. The engine only keeps a strand current across a
//     generation bump at an empty sync, which records no relation
//     mutation, so the verdict proven at the stamp is still in force —
//     no generation check needed.
//
//     2. For a different current reader s, the stamp transfers its
//     verdict through the algorithm's EpochConcurrent capability:
//     EpochOrdered(lastReader, s) promises that the writer-side Precedes
//     the stamp holder proved would still answer true for s, so the
//     writer query is skipped (counted as an epoch hit) and the word is
//     appended/re-stamped race-free. This is FastTrack's adaptive
//     read-epoch observation carried over to strand ids: repeated
//     cross-generation reads of shared data, the dominant pattern in
//     future-parallel code, cost ~0 reachability queries instead of one
//     per (word, strand, generation).
//
//   - Inflated reader lists live in a slab (spill.go), not a map: an
//     inflated word's reader0 holds its slot index, so appending a reader,
//     checking the list on a write and flushing it each cost one slice
//     index. Deflated slots are recycled with their capacity.
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
// The range protocol lives in one type, Checker (checker.go). The
// engine's inline pipeline owns one checker; each consumer of the
// scheduled pool owns its own, and concurrently checked batches touch
// disjoint shadow pages. A checker keeps its own
// last-page cache, verdict cache and counters, buffers race events per
// batch, and folds its counters into the History when a batch ends.
package shadow

import (
	"sync"
	"sync/atomic"
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

// word is the shadow state of one address: the last writer, the first
// reader since that write, and the carried-forward read-epoch stamp (the
// most recent race-free reader) — 12 pointer-free bytes. Keeping pages
// free of pointers matters as much as the lookup structure: a page
// allocates in a noscan span, so the garbage collector never walks shadow
// memory, and first-touch zeroing clears 48KB instead of a pointer-scanned
// multiple. The uncommon case of several distinct readers between two
// writes spills to a list in History.spill (the inflated state): reader0
// then holds spillFlag plus the list's slot index, and the first reader
// moves to element 0 of the list.
//
// The stamp invariant: lastReader is non-zero only if it completed a
// race-free read of this word — meaning the word's writer at that moment
// was proven to precede it — and no write has touched the word since
// (installWriter clears the stamp). The stamp carries no generation: it
// stays consultable across construct generations, and verdict transfer to
// a different current reader goes through the algorithm's EpochOrdered
// check (see Checker.readWordSlow).
type word struct {
	lastWriter core.StrandID
	reader0    core.StrandID
	lastReader core.StrandID
}

// WordBytes is the resident footprint of one shadow word; the benchmark
// harness multiplies it by the touched-page word count to report shadow
// bytes. The blank array below fails to compile if the word layout drifts.
const WordBytes = 12

var _ [1]struct{} = [unsafe.Sizeof(word{}) - WordBytes + 1]struct{}{}

// spillFlag marks an inflated word: its reader list lives in
// History.spill, and the low 31 bits of reader0 are the list's slot
// index. The flag occupies the top bit of reader0, so reader0 can name
// either a strand or a slot, and strand ids are capped at 2^31-1
// (core.MaxStrand; the engine fails closed at the cap).
const spillFlag core.StrandID = 1 << 31

// page is one densely allocated run of shadow words plus the page-level
// sampling coupon (a packed generation-tag + remaining-budget word, see
// sampler.go). The struct stays pointer-free, so pages still allocate in
// noscan spans. The coupon is atomic so a page's budget stays exact
// whichever checker samples it; a lone checker pays an uncontended CAS
// only on sampled accesses under a finite budget.
type page struct {
	w      [pageSize]word
	coupon atomic.Uint64
}

// directory is one node of the flat page table's second level. Entries are
// atomic pointers so one checker can materialize a page while concurrent
// checkers read neighboring entries; uncontended, an atomic load costs the
// same as a plain one.
type directory [dirSize]atomic.Pointer[page]

// pageStripes is the number of stripe locks guarding page
// materialization. Stripes are selected by page number, so two checkers
// only contend when their pages collide mod the stripe count — and then
// only on each page's first touch.
const pageStripes = 64

// History is the access history for one detection run.
type History struct {
	// dirs is the flat table root, indexed by pageNumber >> dirBits. It is
	// published through an atomic pointer and grown copy-on-write under
	// dirMu (growth is rare: once per dirSize pages), so any checker can
	// read the root lock-free while another materializes a page.
	dirs  atomic.Pointer[[]*directory]
	dirMu sync.Mutex

	overflow map[uint64]*page // pages beyond maxDirs directories, under dirMu

	// stripes guards page materialization, selected by page number (see
	// pageFor).
	stripes [pageStripes]sync.Mutex

	// spill holds the reader lists of inflated words (spill.go).
	spill spillSlab

	// foldMu serializes the counter folds of checkers (Checker.End).
	foldMu sync.Mutex

	// Concurrent-install audit (debug assertion for the multi-consumer
	// back-end): when enabled, every checker claims the exact page range
	// of each op before touching it and the claim panics if it overlaps
	// another checker's active claim — concurrent batches must touch
	// disjoint pages or the scheduler is broken. See EnableInstallAudit.
	auditMu     sync.Mutex
	auditClaims map[int][]PageClaim
	auditOn     bool

	// Counters for the benchmark harness: the reference protocol adds to
	// them directly, checkers fold theirs in after each batch.
	// touchedPages is incremented atomically at page materialization.
	counters
	touchedPages uint64

	// smp is the tier-1 access sampler (sampler.go); the zero value is
	// disarmed and every access pays the full protocol.
	smp sampler

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
	epochHits       uint64 // reads resolved by stamp verdict transfer
	epochInflations uint64 // single-reader → inflated (first spill) transitions
	epochDeflations uint64 // inflated → flushed (write install) transitions
	sampledAccesses uint64 // slow-path accesses admitted by the sampler
	budgetSkips     uint64 // rate-admitted accesses denied a page coupon
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
	c.epochHits += o.epochHits
	c.epochInflations += o.epochInflations
	c.epochDeflations += o.epochDeflations
	c.sampledAccesses += o.sampledAccesses
	c.budgetSkips += o.budgetSkips
	c.touched += o.touched
}

// NewHistory returns an empty access history. concurrent says whether
// several checkers will run against it at once (a pool of two or more
// consumers); only then does spill-slot allocation lock.
func NewHistory(concurrent bool) *History {
	h := &History{}
	h.spill.shared = concurrent
	root := []*directory(nil)
	h.dirs.Store(&root)
	return h
}

// SetFaults arms fault injection on the history (nil disarms — the
// default; every probe is then one nil check). Call before any access.
func (h *History) SetFaults(p *faultinject.Plan) { h.faults = p }

// growDirs returns a root slab whose entry di exists and is non-nil,
// growing and republishing copy-on-write if needed. dirMu holder only.
func (h *History) growDirs(di uint64) []*directory {
	slab := *h.dirs.Load()
	if di < uint64(len(slab)) && slab[di] != nil {
		return slab
	}
	n := uint64(len(slab))
	if di >= n {
		n = di + 1
	}
	ns := make([]*directory, n)
	copy(ns, slab)
	if ns[di] == nil {
		ns[di] = new(directory)
	}
	h.dirs.Store(&ns)
	return ns
}

// pageFor returns the page holding page number pn, materializing it on
// first touch. It is safe for concurrent checkers: a resolved page costs
// two atomic loads, and only a first touch takes a lock — the page's
// stripe lock, or dirMu to grow the directory. Overflow pages (addresses
// the dense allocator never produces) are created and read under dirMu.
// Checkers front it with their own last-page cache.
//
// The PageFail probe fires at materialization: a firing plan turns it into
// a panic, modeling a failed shadow-page allocation, which the detection
// pipeline's recover shell converts into a structured PipelineError —
// allocation failure anywhere in the shadow layer fails the run closed.
func (h *History) pageFor(pn uint64) *page {
	if di := pn >> dirBits; di < maxDirs {
		slab := *h.dirs.Load()
		if di >= uint64(len(slab)) || slab[di] == nil {
			h.dirMu.Lock()
			slab = h.growDirs(di)
			h.dirMu.Unlock()
		}
		e := &slab[di][pn&dirMask]
		if p := e.Load(); p != nil {
			return p
		}
		return h.materialize(e, &h.stripes[pn%pageStripes])
	}
	return h.overflowPage(pn)
}

// materialize publishes a fresh page into directory entry e under the
// page's stripe lock, unless a concurrent checker got there first.
func (h *History) materialize(e *atomic.Pointer[page], mu *sync.Mutex) *page {
	mu.Lock()
	defer mu.Unlock()
	p := e.Load()
	if p == nil {
		p = h.newPage()
		e.Store(p)
	}
	return p
}

// overflowPage returns the overflow page pn, materializing it, under dirMu.
func (h *History) overflowPage(pn uint64) *page {
	h.dirMu.Lock()
	defer h.dirMu.Unlock()
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

// newPage allocates one shadow page behind the PageFail probe. The caller
// holds the lock that publishes it.
func (h *History) newPage() *page {
	if h.faults.Fire(faultinject.PageFail) {
		panic(faultinject.Panic{Point: faultinject.PageFail})
	}
	atomic.AddUint64(&h.touchedPages, 1)
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
	h.spill.flush(w, &h.counters)
	w.lastWriter = s
}

// Stats describes access-history traffic.
type Stats struct {
	Reads, Writes uint64
	ReaderAppends uint64
	ReaderFlushes uint64
	TouchedPages  uint64
	// PageCacheHits counts page lookups resolved by a checker's last-page
	// cache.
	PageCacheHits uint64
	// OwnedSkips counts accesses short-circuited by the epoch-style
	// ownership fast path (no protocol run, no reachability query).
	OwnedSkips uint64
	// ReadSharedSkips counts reads short-circuited by the read-epoch fast
	// path: the strand re-read a word it was the last to read, so the
	// proven verdict was reused and no protocol ran. Disjoint from
	// OwnedSkips (an access is counted by at most one skip counter).
	ReadSharedSkips uint64
	// MemoHits counts reachability queries answered by the per-batch
	// verdict cache instead of the reachability structure.
	MemoHits uint64
	// EpochHits counts reads of a stamped word by a different strand whose
	// writer query was skipped because the algorithm's EpochOrdered
	// transferred the stamp holder's race-free verdict to the reader.
	EpochHits uint64
	// EpochInflations counts single-reader → inflated transitions (a
	// word's reader list outgrowing the inline slot into the spill list);
	// EpochDeflations counts the inverse (a write install flushing an
	// inflated word back toward the single-reader state).
	EpochInflations uint64
	EpochDeflations uint64
	// SpillEntries is the number of reader entries of inflated words
	// beyond each word's first reader at the time Stats was taken — the
	// live footprint of inflated words.
	SpillEntries uint64
	// ParRanges and ParChunks are always zero: they counted the fan-outs
	// of the removed intra-range worker pool, and stay only so existing
	// consumers of Stats keep compiling.
	ParRanges uint64
	ParChunks uint64
	// SampledAccesses counts slow-path accesses the tier-1 sampler
	// admitted to the full protocol; SkippedByBudget counts rate-admitted
	// accesses denied by an exhausted per-page coupon budget. Both are
	// zero when sampling is disarmed, and SampledAccesses at rate 1.0
	// (unlimited budget) equals the number of protocol-bound slow-path
	// accesses — deterministic for every pipeline configuration.
	SampledAccesses uint64
	SkippedByBudget uint64
}

// Stats returns the history's counters. Called on a quiescent history
// (after the run, or between batches), so the spill walk needs no lock.
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
		EpochHits:       h.epochHits,
		EpochInflations: h.epochInflations,
		EpochDeflations: h.epochDeflations,
		SpillEntries:    h.spill.entries(),
		SampledAccesses: h.sampledAccesses,
		SkippedByBudget: h.budgetSkips,
	}
}
