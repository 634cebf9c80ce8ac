package shadow

import (
	"testing"

	"futurerd/internal/core"
)

// These tests pin the read-epoch fast path: a strand re-reading words it
// already read race-free must skip the reachability layer entirely — in
// any construct generation — on the serial and the worker-pool paths
// alike, without changing a single verdict.

// writeInterleaved installs an alternating last-writer pattern (strands
// w1/w2 in blocks of blk words) over [1, 1+n) so a later reader cannot be
// served by the owned-word filter and must query each writer.
func writeInterleaved(h *History, ctx *Ctx, n, blk int, w1, w2 core.StrandID) {
	for base := 0; base < n; base += blk {
		s := w1
		if (base/blk)%2 == 1 {
			s = w2
		}
		end := base + blk
		if end > n {
			end = n
		}
		h.WriteRange(uint64(1+base), end-base, s, ctx)
	}
}

// TestReadSharedRepeatZeroQueries: repeated re-reads of an
// interleaved-writer range by one strand at a fixed generation must make
// zero reachability queries after the first pass, and count every
// skipped word.
func TestReadSharedRepeatZeroQueries(t *testing.T) {
	const n, blk, passes = 4096 + 100, 64, 5
	h := NewHistory()
	var races []raceEvent
	ctx := ctxFor(seqRel(1, 2), &races)
	writeInterleaved(h, ctx, n, blk, 1, 2)
	ctx.Gen = 7 // a fresh generation for the reader
	reader := core.StrandID(9)
	h.ReadRange(1, n, reader, ctx)
	firstQ := ctx.Reach.(*relReach).queries.Load()
	if firstQ == 0 {
		t.Fatal("first pass made no queries; the interleaved pattern is broken")
	}
	for p := 1; p < passes; p++ {
		h.ReadRange(1, n, reader, ctx)
	}
	if q := ctx.Reach.(*relReach).queries.Load(); q != firstQ {
		t.Fatalf("re-reads at a fixed generation made %d extra reachability queries, want 0",
			q-firstQ)
	}
	if got, want := h.Stats().ReadSharedSkips, uint64((passes-1)*n); got != want {
		t.Fatalf("ReadSharedSkips = %d, want %d", got, want)
	}
	if len(races) != 0 {
		t.Fatalf("race-free re-reads raced: %v", races[0])
	}
}

// TestReadSharedRepeatZeroQueriesParallel is the worker-pool mirror: the
// fan-out path must skip stamped words exactly like the serial path.
func TestReadSharedRepeatZeroQueriesParallel(t *testing.T) {
	const n, blk, passes = 4096 * 3, 64, 4
	h := NewHistory()
	var races []raceEvent
	ctx := ctxFor(seqRel(1, 2), &races)
	pool := NewPool(4, 512)
	defer pool.Close()
	writeInterleaved(h, ctx, n, blk, 1, 2)
	ctx.Gen = 3
	reader := core.StrandID(9)
	h.ReadRangePar(1, n, reader, ctx, pool)
	firstQ := ctx.Reach.(*relReach).queries.Load()
	for p := 1; p < passes; p++ {
		h.ReadRangePar(1, n, reader, ctx, pool)
	}
	if q := ctx.Reach.(*relReach).queries.Load(); q != firstQ {
		t.Fatalf("parallel re-reads made %d extra reachability queries, want 0", q-firstQ)
	}
	if got, want := h.Stats().ReadSharedSkips, uint64((passes-1)*n); got != want {
		t.Fatalf("ReadSharedSkips = %d, want %d", got, want)
	}
	if h.Stats().ParRanges == 0 {
		t.Fatal("pool never engaged")
	}
	if len(races) != 0 {
		t.Fatalf("race-free re-reads raced: %v", races[0])
	}
}

// TestReadSharedStampDiesWithWrite: a write between reads invalidates the
// summary, so the next read runs the full protocol again (and a racing
// writer is still caught — the stamp can never mask a race).
func TestReadSharedStampDiesWithWrite(t *testing.T) {
	h := NewHistory()
	var races []raceEvent
	// Only writer 1 precedes everything; strands 9 and 10 are mutually
	// parallel.
	ctx := ctxFor(seqRel(1), &races)
	h.WriteRange(1, 8, 1, ctx)
	ctx.Gen = 5
	h.ReadRange(1, 8, 9, ctx) // stamps (9, gen 5)
	q1 := ctx.Reach.(*relReach).queries.Load()
	h.ReadRange(1, 8, 9, ctx) // skips
	if q := ctx.Reach.(*relReach).queries.Load(); q != q1 {
		t.Fatalf("stamped re-read queried (%d extra)", q-q1)
	}
	// Writer 10 is parallel with reader 9: every word races, and the
	// install clears both the reader list and the summary.
	h.WriteRange(1, 8, 10, ctx)
	if len(races) != 8 {
		t.Fatalf("parallel write over stamped words reported %d races, want 8", len(races))
	}
	races = races[:0]
	// Reader 9 re-reads at the same generation: the stamp must be gone,
	// and the new writer 10 is parallel with 9 — every word must race.
	h.ReadRange(1, 8, 9, ctx)
	if len(races) != 8 {
		t.Fatalf("re-read after clearing write reported %d races, want 8 (stamp masked a race)",
			len(races))
	}
}

// TestReadSharedStampPerStrand: a second strand re-reading the same words
// at its own generation re-proves its own verdict; the first strand's
// stamp never answers for it.
func TestReadSharedStampPerStrand(t *testing.T) {
	h := NewHistory()
	var races []raceEvent
	// Writer 1 precedes readers 2 and 3.
	ctx := ctxFor(seqRel(1), &races)
	h.WriteRange(1, 16, 1, ctx)
	ctx.Gen = 2
	h.ReadRange(1, 16, 2, ctx)
	q1 := ctx.Reach.(*relReach).queries.Load()
	ctx.Gen = 3
	h.ReadRange(1, 16, 3, ctx) // different strand: must query again
	if q := ctx.Reach.(*relReach).queries.Load(); q == q1 {
		t.Fatal("second strand's read was served by the first strand's stamp")
	}
	sk1 := h.Stats().ReadSharedSkips
	h.ReadRange(1, 16, 3, ctx) // strand 3's own re-read now skips
	if got := h.Stats().ReadSharedSkips; got != sk1+16 {
		t.Fatalf("ReadSharedSkips = %d, want %d", got, sk1+16)
	}
	if len(races) != 0 {
		t.Fatalf("ordered reads raced: %v", races[0])
	}
}

// TestReadSharedStampSurvivesGenerations: the stamp carries forward across
// construct generations — a re-read by the same strand in a later window
// makes zero extra reachability queries. (The engine only keeps a strand
// current across a generation bump at an empty sync, which mutates
// nothing, so the stamped verdict is still in force.)
func TestReadSharedStampSurvivesGenerations(t *testing.T) {
	h := NewHistory()
	var races []raceEvent
	ctx := ctxFor(seqRel(1), &races)
	h.WriteRange(1, 32, 1, ctx)
	ctx.Gen = 4
	h.ReadRange(1, 32, 5, ctx)
	q1 := ctx.Reach.(*relReach).queries.Load()
	sk := h.Stats().ReadSharedSkips
	ctx.Gen = 6
	h.ReadRange(1, 32, 5, ctx) // later generation: the stamp still serves
	if q := ctx.Reach.(*relReach).queries.Load(); q != q1 {
		t.Fatalf("cross-generation re-read made %d extra queries, want 0", q-q1)
	}
	if got := h.Stats().ReadSharedSkips; got != sk+32 {
		t.Fatalf("ReadSharedSkips = %d, want %d", got, sk+32)
	}
	if len(races) != 0 {
		t.Fatalf("ordered reads raced: %v", races[0])
	}
}

// TestReadSharedStampHugeGenerations: the stamp carries no generation
// bits, so runs past any 32-bit boundary keep the fast path (the old
// truncated-stamp wrap hazard is structurally gone).
func TestReadSharedStampHugeGenerations(t *testing.T) {
	h := NewHistory()
	var races []raceEvent
	ctx := ctxFor(seqRel(1), &races)
	h.WriteRange(1, 4, 1, ctx)
	ctx.Gen = (1 << 32) + 5
	h.ReadRange(1, 4, 2, ctx)
	h.ReadRange(1, 4, 2, ctx)
	if got := h.Stats().ReadSharedSkips; got != 4 {
		t.Fatalf("ReadSharedSkips = %d past the 32-bit boundary, want 4", got)
	}
	if len(races) != 0 {
		t.Fatalf("ordered reads raced: %v", races[0])
	}
}
