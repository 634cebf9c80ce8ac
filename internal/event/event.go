// Package event defines the access-event batches that connect execution
// front-ends (live programs, trace replay, generated workloads) to the
// detection back-end. A front-end appends the word and range accesses it
// observes to the current Batch; the batch is sealed — handed to detection
// as one unit — at the next parallel construct, where the reachability
// relation is about to mutate. Everything inside one batch therefore
// executed under a single, immutable reachability relation and a single
// strand. With the async pipeline a batch also carries, ahead of its ops,
// the construct mutations recorded since the previous hand-off, so the
// consumer brings the relation to exactly the ops' state before checking
// them while the program keeps executing.
//
// Appends coalesce: an access that extends an op of the same kind
// contiguously is merged into it, so a word-at-a-time scan reaches the
// shadow layer as one bulk range and pays one page lookup and one
// memoized reachability verdict instead of thousands. An access may
// extend the last op, or one of the lookback ops before it when no op
// after that one touches the access's words; so interleaved scans, such
// as a matrix kernel that reads one row while it reads and writes
// another, coalesce into one op per stream (BigFoot's check coalescing,
// Rhodes et al., PLDI 2017).
//
// Coalescing is verdict-preserving. Every op of a batch is one strand
// under one reachability relation, and merging never moves an access
// past another access to the same word: each word still sees the same
// accesses, of the same kinds, in the same order, so the shadow protocol
// runs the same per-word steps with the same verdict and racer. Only the
// order across words moves, and with it the order of racy addresses
// within a batch and the counters that depend on op boundaries.
//
// Batches are pooled: the detection back-end recycles them after
// processing, so a steady-state pipeline allocates nothing per batch.
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

// MaxOps is the cap on the ops buffered in one batch, used by the
// engine's per-access Read/Write, its run-at-a-time Accesses (the trace
// replay path) and the trace recorder alike. A front-end flushes a full batch
// mid-window (the detection back-end can start on it early); the cap
// bounds pipeline memory on construct-free access storms that do not
// coalesce. Coalescing scans, however long, stay a single op. A sweep of
// caps from 1k to 64k ops over a non-coalescing single-word access storm
// was flat within noise.
const MaxOps = 4096

// Batch is an ordered run of accesses made by one strand between two
// parallel constructs, preceded by the construct mutations that order
// them. A batch with mutations and no ops is a mutation-only hand-off.
type Batch struct {
	// Strand is the strand that performed every op in the batch (the
	// engine seals at every construct and at any other strand change).
	Strand core.StrandID
	// Gen is the engine's construct generation the ops executed under,
	// reported in PipelineError snapshots. Stamped at seal time, when the
	// batch leaves the engine goroutine.
	Gen uint64
	// Muts are the construct mutations the engine made since the previous
	// hand-off, in program order. They all precede the ops: detection
	// applies them to the reachability relation before checking the
	// batch, on either pipeline.
	Muts []core.Mut
	// Seq is the batch's position in seal order, stamped at hand-off on
	// both pipelines, for pipeline diagnostics.
	Seq uint64
	Ops []Op
}

// lookback is the number of ops before the last that an access may
// extend: two cover the three interleaved streams of a matrix kernel's
// inner loop, and every access that merges nowhere pays one test per op.
// On a 2-vCPU VM a third op made futurerd-perf's lcs-mbplus no faster,
// raised its alloc_mb 5.5% and pagerank-mb's slowdown 3.5%.
const lookback = 2

// Append records an access, coalescing it into an op it extends (see the
// package documentation). It returns the op count so callers can flush
// at MaxOps. Non-positive word counts are ignored.
//
// Append is Extend, then Near and Merge, else Push. A per-access caller
// on a hot path makes the same calls itself: all but Merge inline, so an
// access that merges nowhere pays no call.
func (b *Batch) Append(k Kind, addr uint64, words int) int {
	if words <= 0 {
		return len(b.Ops)
	}
	if b.Extend(k, addr, words) {
		return len(b.Ops)
	}
	if b.Near(addr) {
		return b.Merge(k, addr, words)
	}
	return b.Push(k, addr, words)
}

// Extend merges a positive-length access into the last op when it extends
// that op contiguously with the same kind, and reports whether it did.
func (b *Batch) Extend(k Kind, addr uint64, words int) bool {
	if n := len(b.Ops); n > 0 {
		last := &b.Ops[n-1]
		if last.Kind == k && last.Addr+uint64(last.Words) == addr {
			last.Words += words
			return true
		}
	}
	return false
}

// Near reports whether addr is where one of the lookback ops before the
// last ends: only then may Merge coalesce an access that Extend did not.
// The two tests are unrolled so that Near inlines; a batch of fewer than
// lookback+1 ops is never near.
func (b *Batch) Near(addr uint64) bool {
	n := len(b.Ops)
	return n > lookback && (b.Ops[n-2].end() == addr || b.Ops[n-3].end() == addr)
}

// Merge records a positive-length access that Extend did not merge and
// that is Near. It merges the access into the nearest of the lookback ops
// before the last that it extends with the same kind and whose later ops
// leave its words untouched, else pushes it as a new op. It returns the
// op count.
func (b *Batch) Merge(k Kind, addr uint64, words int) int {
	n := len(b.Ops)
	for i := n - 2; i >= 0 && i >= n-1-lookback; i-- {
		op := &b.Ops[i]
		if op.end() == addr && op.Kind == k && !b.overlapsAfter(i, addr, words) {
			op.Words += words
			return n
		}
	}
	return b.Push(k, addr, words)
}

// Push appends an access as a new op and returns the op count.
func (b *Batch) Push(k Kind, addr uint64, words int) int {
	b.Ops = append(b.Ops, Op{Addr: addr, Words: words, Kind: k})
	return len(b.Ops)
}

// overlapsAfter reports whether an op after op i touches a word of
// [addr, addr+words).
func (b *Batch) overlapsAfter(i int, addr uint64, words int) bool {
	end := addr + uint64(words)
	for _, op := range b.Ops[i+1:] {
		if op.Addr < end && addr < op.end() {
			return true
		}
	}
	return false
}

// end returns the address just past the op's last word.
func (op *Op) end() uint64 { return op.Addr + uint64(op.Words) }

// Len returns the number of (coalesced) ops buffered.
func (b *Batch) Len() int { return len(b.Ops) }

// Reset empties the batch, keeping its capacity.
func (b *Batch) Reset() {
	b.Ops = b.Ops[:0]
	b.Muts = b.Muts[:0]
	b.Strand = core.NoStrand
	b.Gen = 0
	b.Seq = 0
}

// Stats counts batch-pipeline traffic.
type Stats struct {
	// Batches counts sealed non-empty batches handed to detection.
	Batches uint64
	// IndependentBatches, FootprintPages, StolenChunks and
	// OverlappedWindows are always zero: they counted the work of the
	// removed concurrent batch scheduler, and stay only so existing
	// readers of Stats keep compiling.
	IndependentBatches uint64
	FootprintPages     uint64
	StolenChunks       uint64
	OverlappedWindows  uint64
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
