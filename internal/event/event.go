// Package event defines the access-event batches that connect execution
// front-ends (live programs, trace replay, generated workloads) to the
// detection back-end. A front-end appends the word and range accesses it
// observes to the current Batch; the batch is sealed — handed to detection
// as one unit — at the next parallel construct, where the reachability
// relation is about to mutate. Everything inside one batch therefore
// executed under a single, immutable reachability relation and a single
// strand, which is exactly the invariant that lets a sealed batch be
// checked concurrently with continued program execution (and lets the
// shadow layer fan one range out across workers).
//
// Appends coalesce: an access that extends the previous op of the same
// kind contiguously is merged into it, so a word-at-a-time scan reaches
// the shadow layer as one bulk range and pays one page lookup and one
// memoized reachability verdict instead of thousands. Coalescing is
// verdict-preserving — the merged range covers the same words in the same
// order with no intervening access, so the shadow protocol runs the exact
// same per-word steps.
//
// Batches are pooled: the detection back-end recycles them after
// processing, so a steady-state pipeline allocates nothing per batch.
//
// # Footprints
//
// A sealed batch carries a footprint: the strand that performed it plus a
// compact summary of the shadow pages it touches (sorted, merged page
// spans, collapsed to their hull past a small cap). Footprints are what
// the detection scheduler works on — two batches with
// disjoint page spans, distinct strands and no relation-mutation conflict
// between them touch disjoint shadow words and make queries whose answers
// are independent of each other's order, so they may be checked
// concurrently without changing a single verdict or counter. Summarize
// computes the footprint at seal time from the (already coalesced) ops in
// one linear pass plus an insertion sort over the handful of spans.
package event

import (
	"sync"
	"sync/atomic"

	"futurerd/internal/core"
)

// Kind is the access kind of one op.
type Kind uint8

// Access kinds.
const (
	Read Kind = iota
	Write
)

// Op is one coalesced access: Words consecutive shadow words starting at
// Addr, all read or all written.
type Op struct {
	Addr  uint64
	Words int
	Kind  Kind
}

// MaxOps is the cap on the ops buffered in one batch, used by the engine
// and the trace recorder alike. A front-end flushes a full batch
// mid-window (the detection back-end can start on it early); the cap
// bounds pipeline memory on construct-free access storms that do not
// coalesce. Coalescing scans, however long, stay a single op. A sweep of
// caps from 1k to 64k ops over a non-coalescing single-word access storm
// was flat within noise.
const MaxOps = 4096

// PageSpan is one contiguous run of shadow page numbers, inclusive.
type PageSpan struct {
	Lo, Hi uint64
}

// StrandSpan is one contiguous run of strand ids, inclusive. The engine
// allocates strand ids densely in depth-first execution order, so a
// function subtree occupies one span; the detection scheduler uses spans
// to conservatively name the strands whose queries a recorded return
// mutation could affect.
type StrandSpan struct {
	First, Last core.StrandID
}

// Contains reports whether s lies in the span.
func (sp StrandSpan) Contains(s core.StrandID) bool {
	return sp.First <= s && s <= sp.Last
}

// MaxFootprintSpans caps the page spans kept per batch footprint; a batch
// touching more distinct page runs collapses to its hull (one span,
// Exact=false). Collapsing only over-approximates, so scheduling stays
// sound — it just serializes more.
const MaxFootprintSpans = 16

// Footprint summarizes the shadow pages one sealed batch touches: sorted,
// disjoint, non-adjacent page spans. Exact is false when the spans were
// collapsed to their hull (the summary then covers a superset of the
// touched pages).
type Footprint struct {
	Spans []PageSpan
	Exact bool
}

// Pages returns the number of pages the summary covers.
func (f *Footprint) Pages() uint64 {
	var n uint64
	for _, s := range f.Spans {
		n += s.Hi - s.Lo + 1
	}
	return n
}

// Corrupt deliberately falsifies the summary for fault-injection runs: the
// footprint shrinks to a single page of its first span and claims to be
// exact, so it no longer covers the batch's real accesses. The scheduler
// may then overlap batches that in fact share pages — exactly the lie the
// shadow install audit exists to catch. Production code never calls this.
func (f *Footprint) Corrupt() {
	if len(f.Spans) == 0 {
		return
	}
	f.Spans = f.Spans[:1]
	f.Spans[0].Hi = f.Spans[0].Lo
	f.Exact = true
}

// Overlaps reports whether the two summaries share a page. Both span
// lists are sorted, so the test is a linear merge.
func (f *Footprint) Overlaps(g *Footprint) bool {
	i, j := 0, 0
	for i < len(f.Spans) && j < len(g.Spans) {
		a, b := f.Spans[i], g.Spans[j]
		if a.Hi < b.Lo {
			i++
		} else if b.Hi < a.Lo {
			j++
		} else {
			return true
		}
	}
	return false
}

// Batch is an ordered run of accesses made by one strand between two
// parallel constructs.
type Batch struct {
	// Strand is the strand that performed every op in the batch (the
	// current strand can only change at a construct, which seals).
	Strand core.StrandID
	// Gen is the engine's construct generation the ops executed under; it
	// keys the shadow layer's memoized verdicts and read-shared stamps.
	// Stamped at seal time, when the batch leaves the engine goroutine.
	Gen uint64
	// Version is the reachability-relation version (count of construct
	// mutations recorded) the ops executed under. The detection back-end
	// applies pending mutations up to at least this version before
	// checking the batch; the scheduler's dependency rules guarantee that
	// any version it actually checks under answers every query of this
	// batch identically to this exact version.
	Version uint64
	// Seq is the batch's position in seal order, stamped at submit time;
	// the scheduler's reorder buffer delivers race reports
	// in Seq order so the report stream is byte-identical to serial.
	Seq uint64
	// FP is the page footprint, computed by Summarize at seal time.
	FP Footprint
	// Barrier records that a relation mutation that can change existing
	// query answers (a sync join or a future get) was recorded between the
	// previous submitted batch and this one: this batch and everything
	// after it must wait for every earlier in-flight batch.
	Barrier bool
	// ApplyBarrier records that some mutation between the previous
	// submitted batch and this one is not pin-safe (core.PinConcurrent):
	// the scheduler must wait for every snapshot pin to drain before it
	// can advance the relation to this batch's Version. Barrier implies a
	// scheduling barrier too; ApplyBarrier alone (e.g. a multi-strand
	// return under an algorithm that cannot retag under pins) only gates
	// when the version may be published, not which batches may overlap.
	ApplyBarrier bool
	// RetSpans lists the subtree strand spans of return mutations recorded
	// between the previous submitted batch and this one: a return retags
	// only its own subtree's bags, so it conflicts exactly with in-flight
	// batches whose strand lies in the span (and single-strand subtrees
	// cannot conflict with their own batch — the engine already filters
	// those out when stamping).
	RetSpans []StrandSpan
	Ops      []Op
}

// Append records an access, coalescing it into the previous op when it
// extends that op contiguously with the same kind. It returns the op
// count so callers can flush at MaxOps. Non-positive word counts are
// ignored.
func (b *Batch) Append(k Kind, addr uint64, words int) int {
	if words <= 0 {
		return len(b.Ops)
	}
	if n := len(b.Ops); n > 0 {
		last := &b.Ops[n-1]
		if last.Kind == k && last.Addr+uint64(last.Words) == addr {
			last.Words += words
			return n
		}
	}
	b.Ops = append(b.Ops, Op{Addr: addr, Words: words, Kind: k})
	return len(b.Ops)
}

// Len returns the number of (coalesced) ops buffered.
func (b *Batch) Len() int { return len(b.Ops) }

// Summarize computes the batch's page footprint from its ops: one span
// per op, insertion-sorted and merged (ops are coalesced, so there are
// few), collapsed to the hull past MaxFootprintSpans. PageBits is the
// shadow layer's page size exponent. An op inside one span already in the
// union leaves the union as it is, so it is not inserted.
func (b *Batch) Summarize(pageBits uint) {
	spans := b.FP.Spans[:0]
	for i := range b.Ops {
		op := &b.Ops[i]
		lo := op.Addr >> pageBits
		hi := (op.Addr + uint64(op.Words) - 1) >> pageBits
		if !covered(spans, lo, hi) {
			spans = insertSpan(spans, PageSpan{lo, hi})
		}
	}
	b.FP.Exact = true
	if len(spans) > MaxFootprintSpans {
		spans = append(spans[:0], PageSpan{spans[0].Lo, spans[len(spans)-1].Hi})
		b.FP.Exact = false
	}
	b.FP.Spans = spans
}

// covered reports whether pages [lo, hi] lie inside one span of the
// sorted span list.
func covered(spans []PageSpan, lo, hi uint64) bool {
	for _, sp := range spans {
		if sp.Lo > lo {
			return false
		}
		if hi <= sp.Hi {
			return true
		}
	}
	return false
}

// insertSpan inserts s into the sorted, disjoint, non-adjacent span list,
// merging as needed. Linear in the span count, which is capped.
func insertSpan(spans []PageSpan, s PageSpan) []PageSpan {
	// Find the first span that could interact with s (ends at or after
	// s.Lo-1, guarding the 0 underflow).
	i := 0
	for i < len(spans) && spans[i].Hi < s.Lo && spans[i].Hi+1 != s.Lo {
		i++
	}
	// Collect every span that overlaps or is adjacent to s into s.
	j := i
	for j < len(spans) && spans[j].Lo <= s.Hi+1 && (s.Hi != ^uint64(0) || spans[j].Lo <= s.Hi) {
		if spans[j].Lo < s.Lo {
			s.Lo = spans[j].Lo
		}
		if spans[j].Hi > s.Hi {
			s.Hi = spans[j].Hi
		}
		j++
	}
	if i == j {
		// No merge: splice s in at i.
		spans = append(spans, PageSpan{})
		copy(spans[i+1:], spans[i:])
		spans[i] = s
		return spans
	}
	spans[i] = s
	return append(spans[:i+1], spans[j:]...)
}

// Reset empties the batch, keeping its capacity.
func (b *Batch) Reset() {
	b.Ops = b.Ops[:0]
	b.Strand = core.NoStrand
	b.Gen = 0
	b.Version = 0
	b.Seq = 0
	b.FP.Spans = b.FP.Spans[:0]
	b.FP.Exact = false
	b.Barrier = false
	b.ApplyBarrier = false
	b.RetSpans = b.RetSpans[:0]
}

// OpChunk names a footprint-disjoint slice of a batch's ops for
// chunk-granularity work stealing: ops[Lo:Hi), touching only pages in
// [MinPage, MaxPage]. SplitOps guarantees the page ranges of a batch's
// chunks are pairwise disjoint, so two consumers can check chunks of the
// same batch concurrently without sharing a shadow word.
type OpChunk struct {
	Lo, Hi           int
	MinPage, MaxPage uint64
}

// SplitOps cuts ops into footprint-disjoint chunks of at least minWords
// words each (the last chunk takes the remainder). A cut is only made
// between op i and i+1 when every page touched at or before i is strictly
// below every page touched after i, so the chunks partition both the op
// sequence and the page space. Ops whose addresses interleave across the
// whole batch yield a single chunk — stealing then degrades to whole-batch
// assignment, never to an unsound overlap.
func SplitOps(ops []Op, minWords int, pageBits uint) []OpChunk {
	if len(ops) == 0 {
		return nil
	}
	// sufMin[i] = min page touched by ops[i:]; prefMax accumulates forward.
	sufMin := make([]uint64, len(ops)+1)
	sufMin[len(ops)] = ^uint64(0)
	for i := len(ops) - 1; i >= 0; i-- {
		lo := ops[i].Addr >> pageBits
		if lo > sufMin[i+1] {
			lo = sufMin[i+1]
		}
		sufMin[i] = lo
	}
	var chunks []OpChunk
	start, words := 0, 0
	var prefMax uint64
	var curMin uint64 = ^uint64(0)
	for i := range ops {
		lo := ops[i].Addr >> pageBits
		hi := (ops[i].Addr + uint64(ops[i].Words) - 1) >> pageBits
		if lo < curMin {
			curMin = lo
		}
		if hi > prefMax {
			prefMax = hi
		}
		words += ops[i].Words
		if words >= minWords && i+1 < len(ops) && prefMax < sufMin[i+1] {
			chunks = append(chunks, OpChunk{Lo: start, Hi: i + 1, MinPage: curMin, MaxPage: prefMax})
			start, words = i+1, 0
			curMin = ^uint64(0)
		}
	}
	return append(chunks, OpChunk{Lo: start, Hi: len(ops), MinPage: curMin, MaxPage: prefMax})
}

// Stats counts batch-pipeline traffic. A batch is "independent" when its
// footprint does not depend on the immediately preceding sealed batch —
// distinct strand, disjoint pages, and no conflicting relation mutation
// recorded in between — which is the (deterministic, timing-free)
// pairwise form of the condition the detection scheduler uses to
// check batches concurrently. The footprint counters size the summaries
// the scheduler works with.
type Stats struct {
	// Batches counts sealed non-empty batches handed to detection.
	Batches uint64
	// IndependentBatches counts batches independent of their predecessor;
	// SerializedBatches counts the rest (the first batch counts as
	// serialized). Batches = IndependentBatches + SerializedBatches.
	IndependentBatches uint64
	SerializedBatches  uint64
	// FootprintSpans and FootprintPages total the page spans and pages
	// summarized across all batch footprints; CollapsedFootprints counts
	// batches whose summary fell back to the inexact hull.
	FootprintSpans      uint64
	FootprintPages      uint64
	CollapsedFootprints uint64
	// StolenChunks counts batch chunks checked by a consumer other than
	// the one that took the batch's first chunk, and OverlappedWindows
	// counts relation versions published while earlier batches were still
	// in flight (the overlapping-window fast path). Both depend on
	// scheduling timing — unlike every counter above they are NOT
	// deterministic, and equivalence comparisons zero them on both sides.
	StolenChunks      uint64
	OverlappedWindows uint64
}

var pool = sync.Pool{New: func() any { return &Batch{} }}

// live counts batches taken from the pool and not yet recycled; tests use
// the delta across a run to prove the pipeline (including its failure
// paths) leaks no pooled batches.
var live atomic.Int64

// New returns an empty batch from the pool.
func New() *Batch {
	live.Add(1)
	b := pool.Get().(*Batch)
	b.Reset()
	return b
}

// Recycle returns a batch to the pool.
func Recycle(b *Batch) {
	if b == nil {
		return
	}
	live.Add(-1)
	pool.Put(b)
}

// Live returns the number of batches currently checked out of the pool.
// Compare before/after deltas rather than absolute values: other engines
// in the same process (parallel tests) also check batches out.
func Live() int64 { return live.Load() }
