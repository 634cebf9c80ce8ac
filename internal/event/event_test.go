package event

import (
	"math/rand/v2"
	"slices"
	"testing"

	"futurerd/internal/core"
)

func TestAppendCoalescesContiguousSameKind(t *testing.T) {
	var b Batch
	for i := uint64(0); i < 100; i++ {
		b.Append(Read, 10+i, 1)
	}
	if b.Len() != 1 {
		t.Fatalf("sequential scan coalesced to %d ops, want 1", b.Len())
	}
	if op := b.Ops[0]; op.Addr != 10 || op.Words != 100 || op.Kind != Read {
		t.Fatalf("coalesced op = %+v", op)
	}
	// A range extending the run coalesces too.
	b.Append(Read, 110, 50)
	if b.Len() != 1 || b.Ops[0].Words != 150 {
		t.Fatalf("range extension not coalesced: %+v", b.Ops)
	}
}

func TestAppendSplitsOnKindGapAndDirection(t *testing.T) {
	var b Batch
	b.Append(Read, 10, 1)
	b.Append(Write, 11, 1) // kind change
	b.Append(Write, 20, 1) // gap
	b.Append(Write, 19, 1) // backwards (never coalesced)
	if b.Len() != 4 {
		t.Fatalf("got %d ops, want 4: %+v", b.Len(), b.Ops)
	}
}

func TestAppendIgnoresEmptyAccess(t *testing.T) {
	var b Batch
	if n := b.Append(Read, 5, 0); n != 0 || b.Len() != 0 {
		t.Fatalf("zero-word access buffered: len=%d", b.Len())
	}
	if n := b.Append(Write, 5, -3); n != 0 || b.Len() != 0 {
		t.Fatalf("negative access buffered: len=%d", b.Len())
	}
}

func TestPoolRoundTrip(t *testing.T) {
	b := New()
	b.Strand = 7
	b.Append(Write, 1, 4)
	Recycle(b)
	c := New() // may or may not be b; must be empty either way
	if c.Len() != 0 || c.Strand != 0 {
		t.Fatalf("recycled batch not reset: %+v", c)
	}
	Recycle(nil) // must not panic
}

func TestSummarizeMergesAndSorts(t *testing.T) {
	const pb = 12
	var b Batch
	b.Append(Write, 3*4096, 100)  // page 3
	b.Append(Read, 0, 4096)       // page 0
	b.Append(Write, 4096+10, 20)  // page 1 (adjacent to page 0's span: merges)
	b.Append(Read, 10*4096, 8192) // pages 10-11
	b.Summarize(pb)
	want := []PageSpan{{0, 1}, {3, 3}, {10, 11}}
	if !b.FP.Exact || len(b.FP.Spans) != len(want) {
		t.Fatalf("footprint = %+v, want %v", b.FP, want)
	}
	for i, sp := range want {
		if b.FP.Spans[i] != sp {
			t.Fatalf("span %d = %v, want %v (all: %v)", i, b.FP.Spans[i], sp, b.FP.Spans)
		}
	}
	if got := b.FP.Pages(); got != 5 {
		t.Fatalf("Pages() = %d, want 5", got)
	}
}

func TestSummarizeCollapsesToHull(t *testing.T) {
	var b Batch
	for i := 0; i < 2*MaxFootprintSpans; i++ {
		b.Append(Write, uint64(i*3*4096), 10) // every third page: no merging
	}
	b.Summarize(12)
	if b.FP.Exact || len(b.FP.Spans) != 1 {
		t.Fatalf("expected inexact hull, got %+v", b.FP)
	}
	hull := b.FP.Spans[0]
	if hull.Lo != 0 || hull.Hi != uint64((2*MaxFootprintSpans-1)*3) {
		t.Fatalf("hull = %+v", hull)
	}
}

func TestFootprintOverlaps(t *testing.T) {
	mk := func(spans ...PageSpan) Footprint { return Footprint{Spans: spans, Exact: true} }
	cases := []struct {
		a, b Footprint
		want bool
	}{
		{mk(PageSpan{0, 1}), mk(PageSpan{2, 3}), false},
		{mk(PageSpan{0, 1}), mk(PageSpan{1, 3}), true},
		{mk(PageSpan{0, 0}, PageSpan{5, 9}), mk(PageSpan{2, 4}), false},
		{mk(PageSpan{0, 0}, PageSpan{5, 9}), mk(PageSpan{2, 6}), true},
		{mk(), mk(PageSpan{0, 9}), false},
	}
	for i, c := range cases {
		if got := c.a.Overlaps(&c.b); got != c.want {
			t.Fatalf("case %d: Overlaps = %v, want %v", i, got, c.want)
		}
		if got := c.b.Overlaps(&c.a); got != c.want {
			t.Fatalf("case %d (sym): Overlaps = %v, want %v", i, got, c.want)
		}
	}
}

func TestSummarizeReuseAfterReset(t *testing.T) {
	b := New()
	b.Append(Write, 0, 10)
	b.Summarize(12)
	b.Barrier = true
	b.RetSpans = append(b.RetSpans, StrandSpan{1, 5})
	Recycle(b)
	b2 := New() // pooled: must come back clean
	if len(b2.FP.Spans) != 0 || b2.Barrier || len(b2.RetSpans) != 0 || b2.Seq != 0 {
		t.Fatalf("recycled batch not reset: %+v", b2)
	}
}

func TestStrandSpanContains(t *testing.T) {
	sp := StrandSpan{First: 5, Last: 9}
	for s, want := range map[uint32]bool{4: false, 5: true, 7: true, 9: true, 10: false} {
		if got := sp.Contains(core.StrandID(s)); got != want {
			t.Fatalf("Contains(%d) = %v, want %v", s, got, want)
		}
	}
}

// TestSplitOpsPartitionsPageDisjointRuns pins the chunk planner the
// work-stealing scheduler relies on: chunks partition the op sequence,
// their page ranges are pairwise disjoint and ascending, a cut never
// lands before the granule is full, and interleaved addresses collapse
// to a single chunk.
func TestSplitOpsPartitionsPageDisjointRuns(t *testing.T) {
	const pageBits = 12
	page := uint64(1) << pageBits
	ops := []Op{
		{Addr: 0 * page, Words: 40, Kind: Write},
		{Addr: 1 * page, Words: 40, Kind: Read},
		{Addr: 10 * page, Words: 40, Kind: Write},
		{Addr: 11 * page, Words: 40, Kind: Write},
		{Addr: 50 * page, Words: 40, Kind: Read},
	}
	// 40 words is below the 64-word granule, so the first eligible cut is
	// after op 1 (80 words, pages 0-1 strictly below everything later),
	// the next after op 3, and the final op takes the remainder.
	chunks := SplitOps(ops, 64, pageBits)
	want := []OpChunk{
		{Lo: 0, Hi: 2, MinPage: 0, MaxPage: 1},
		{Lo: 2, Hi: 4, MinPage: 10, MaxPage: 11},
		{Lo: 4, Hi: 5, MinPage: 50, MaxPage: 50},
	}
	if len(chunks) != len(want) {
		t.Fatalf("chunks = %+v, want %+v", chunks, want)
	}
	for i := range want {
		if chunks[i] != want[i] {
			t.Fatalf("chunk %d = %+v, want %+v", i, chunks[i], want[i])
		}
	}
	for i := 1; i < len(chunks); i++ {
		if chunks[i].Lo != chunks[i-1].Hi {
			t.Fatalf("chunks do not partition the op sequence: %+v", chunks)
		}
		if chunks[i-1].MaxPage >= chunks[i].MinPage {
			t.Fatalf("chunk page ranges overlap: %+v", chunks)
		}
	}

	// Interleaved addresses: a later op revisits an early page, so no cut
	// point separates the page space — one chunk, stealing degrades to
	// whole-batch granularity.
	inter := []Op{
		{Addr: 0, Words: 100, Kind: Write},
		{Addr: 10 * page, Words: 100, Kind: Write},
		{Addr: 0, Words: 100, Kind: Read},
	}
	if got := SplitOps(inter, 64, pageBits); len(got) != 1 ||
		got[0].Lo != 0 || got[0].Hi != 3 || got[0].MinPage != 0 || got[0].MaxPage != 10 {
		t.Fatalf("interleaved ops = %+v, want one chunk over pages [0,10]", got)
	}

	// An op spanning a page boundary counts all its pages on the prefix
	// side, so the cut respects the span's true extent.
	span := []Op{
		{Addr: page - 8, Words: 16, Kind: Write}, // pages 0-1
		{Addr: 5 * page, Words: 16, Kind: Write},
	}
	got := SplitOps(span, 16, pageBits)
	if len(got) != 2 || got[0].MaxPage != 1 || got[1].MinPage != 5 {
		t.Fatalf("page-spanning op chunks = %+v, want split [0,1] | [5,5]", got)
	}

	if got := SplitOps(nil, 16, pageBits); got != nil {
		t.Fatalf("SplitOps(nil) = %+v, want nil", got)
	}
}

// TestSummarizeSkipMatchesInsertAll: skipping ops already covered by the
// union yields the footprint of inserting every op, on random op lists.
func TestSummarizeSkipMatchesInsertAll(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var b Batch
	for trial := 0; trial < 2000; trial++ {
		b.Reset()
		for n := rng.IntN(40); len(b.Ops) < n; {
			// Few pages, so ops land inside, beside and across spans.
			addr := rng.Uint64N(24 << 12)
			b.Ops = append(b.Ops, Op{Addr: addr, Words: 1 + rng.IntN(3<<12), Kind: Read})
		}
		var all []PageSpan
		for _, op := range b.Ops {
			all = insertSpan(all, PageSpan{op.Addr >> 12, (op.Addr + uint64(op.Words) - 1) >> 12})
		}
		exact := len(all) <= MaxFootprintSpans
		if !exact {
			all = []PageSpan{{all[0].Lo, all[len(all)-1].Hi}}
		}
		b.Summarize(12)
		if !slices.Equal(b.FP.Spans, all) || b.FP.Exact != exact {
			t.Fatalf("trial %d: footprint %+v, inserting every op gives %v (exact %v)\nops %v", trial, b.FP, all, exact, b.Ops)
		}
	}
}
