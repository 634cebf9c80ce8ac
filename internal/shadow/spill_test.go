package shadow

import (
	"testing"

	"futurerd/internal/core"
)

// inflate has strands 1..k read the fresh words [base, base+n): the reads
// make no queries (no writer yet) and leave every word inflated with the
// same k readers.
func inflate(h *History, ctx *Ctx, base uint64, n, k int) {
	for r := 1; r <= k; r++ {
		h.ReadRange(base, n, core.StrandID(r), ctx)
	}
}

func allPrecede(u, v core.StrandID) bool { return true }

// The verdict cache pays one query per distinct reader per batch: a write
// over n words that share the same k inflated readers makes exactly k
// queries, where a single-entry memo would make k per word.
const inflN, inflK = 64, 16

func TestInflatedWriteQueriesPerReaderSerial(t *testing.T) {
	h := NewHistory()
	var races []raceEvent
	ctx := ctxFor(allPrecede, &races)
	reach := ctx.Reach.(*relReach)
	for batch := 0; batch < 2; batch++ {
		base := uint64(1 + batch*inflN)
		inflate(h, ctx, base, inflN, inflK)
		if q := reach.queries.Load(); q != uint64(batch*inflK) {
			t.Fatalf("batch %d: reads of fresh words made %d queries", batch, q-uint64(batch*inflK))
		}
		h.ResetBatchCaches()
		h.WriteRange(base, inflN, 100, ctx)
		if got, want := reach.queries.Load(), uint64((batch+1)*inflK); got != want {
			t.Fatalf("batch %d: %d queries in total, want %d", batch, got, want)
		}
	}
	st := h.Stats()
	if want := uint64(2 * inflK * (inflN - 1)); st.MemoHits != want {
		t.Fatalf("MemoHits = %d, want %d", st.MemoHits, want)
	}
	if st.EpochInflations != 2*inflN || st.EpochDeflations != 2*inflN || st.SpillEntries != 0 {
		t.Fatalf("inflation bookkeeping: %+v", st)
	}
	if len(races) != 0 {
		t.Fatalf("ordered write raced: %v", races[0])
	}
}

// On the Workers fan-out path every chunk starts with its own empty cache,
// so the same write makes k queries per chunk.
func TestInflatedWriteQueriesPerReaderFanOut(t *testing.T) {
	const chunk = 16
	pool := NewPool(3, chunk)
	defer pool.Close()
	h := NewHistory()
	var races []raceEvent
	ctx := ctxFor(allPrecede, &races)
	reach := ctx.Reach.(*relReach)
	for r := 1; r <= inflK; r++ {
		h.ReadRangePar(1, inflN, core.StrandID(r), ctx, pool)
	}
	if q := reach.queries.Load(); q != 0 {
		t.Fatalf("reads of fresh words made %d queries", q)
	}
	h.WriteRangePar(1, inflN, 100, ctx, pool)
	if got, want := reach.queries.Load(), uint64(inflK*inflN/chunk); got != want {
		t.Fatalf("fanned-out write made %d queries, want %d (k per chunk)", got, want)
	}
	st := h.Stats()
	if st.ParRanges != inflK+1 || st.EpochDeflations != inflN || st.SpillEntries != 0 {
		t.Fatalf("fan-out bookkeeping: %+v", st)
	}
	if len(races) != 0 {
		t.Fatalf("ordered write raced: %v", races[0])
	}
}

// A View checks one batch per Begin/End: k queries per batch.
func TestInflatedWriteQueriesPerReaderView(t *testing.T) {
	h := NewHistory()
	var races []raceEvent
	ctx := ctxFor(allPrecede, &races)
	reach := ctx.Reach.(*relReach)
	v := NewView(h, 0)
	for batch := 0; batch < 2; batch++ {
		base := uint64(1 + batch*inflN)
		for r := 1; r <= inflK; r++ {
			v.Begin(ctx, core.StrandID(r))
			v.ReadRange(base, inflN, nil)
			v.End()
		}
		v.Begin(ctx, 100)
		v.WriteRange(base, inflN, nil)
		if n := len(v.Events()); n != 0 {
			t.Fatalf("batch %d: ordered write raced %d times", batch, n)
		}
		v.End()
		if got, want := reach.queries.Load(), uint64((batch+1)*inflK); got != want {
			t.Fatalf("batch %d: %d queries in total, want %d", batch, got, want)
		}
	}
	if st := h.Stats(); st.MemoHits != uint64(2*inflK*(inflN-1)) {
		t.Fatalf("MemoHits = %d, want %d", st.MemoHits, 2*inflK*(inflN-1))
	}
}

// TestVerdictCacheInvalidation pins the points where cached verdicts die:
// a new generation or current strand on the serial path, and stamp
// wraparound.
func TestVerdictCacheInvalidation(t *testing.T) {
	h := NewHistory()
	var races []raceEvent
	ctx := ctxFor(allPrecede, &races)
	reach := ctx.Reach.(*relReach)
	inflate(h, ctx, 1, 4, 3)
	h.WriteRange(1, 2, 100, ctx) // 3 queries, then 3 hits
	ctx.Gen++
	h.WriteRange(3, 1, 100, ctx) // new generation: 3 more
	h.WriteRange(4, 1, 101, ctx) // new strand: 3 more
	if got := reach.queries.Load(); got != 9 {
		t.Fatalf("queries = %d, want 9", got)
	}

	var v verdictCache
	var hits uint64
	v.precedes(5, 9, reach, &hits) // cached under stamp 0
	v.stamp = ^uint32(0)           // 2^32-1 resets later, slot untouched
	v.reset()                      // back to stamp 0
	v.precedes(5, 9, reach, &hits)
	if hits != 0 {
		t.Fatal("a verdict survived stamp wraparound")
	}
	v.precedes(5, 9, reach, &hits)
	if hits != 1 {
		t.Fatal("the cache stopped hitting after wraparound")
	}
}

// TestSpillSlotsRecycle: a deflated slot returns to the free list with its
// capacity, and the next inflation reuses it instead of growing the slab.
func TestSpillSlotsRecycle(t *testing.T) {
	h := NewHistory()
	var races []raceEvent
	ctx := ctxFor(allPrecede, &races)
	const n = spillSegSize + 5 // spans two segments
	for cycle := 0; cycle < 3; cycle++ {
		inflate(h, ctx, 1, n, 4)
		if h.spill.next != n {
			t.Fatalf("cycle %d: %d slots handed out, want %d", cycle, h.spill.next, n)
		}
		if got := h.Stats().SpillEntries; got != 3*n {
			t.Fatalf("cycle %d: SpillEntries = %d, want %d", cycle, got, 3*n)
		}
		h.WriteRange(1, n, core.StrandID(100+cycle), ctx)
		if len(h.spill.free) != n {
			t.Fatalf("cycle %d: %d free slots after the write, want %d", cycle, len(h.spill.free), n)
		}
	}
	if c := cap(*h.spill.list(0)); c < 4 {
		t.Fatalf("recycled slot lost its capacity (cap %d)", c)
	}
}
