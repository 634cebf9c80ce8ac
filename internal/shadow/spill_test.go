package shadow

import (
	"testing"

	"futurerd/internal/core"
)

// inflate has strands 1..k read the fresh words [base, base+n): the reads
// make no queries (no writer yet) and leave every word inflated with the
// same k readers.
func inflate(read func(addr uint64, words int, s core.StrandID), base uint64, n, k int) {
	for r := 1; r <= k; r++ {
		read(base, n, core.StrandID(r))
	}
}

func allPrecede(u, v core.StrandID) bool { return true }

// The verdict cache pays one query per distinct reader per batch: a write
// over n words that share the same k inflated readers makes exactly k
// queries, where a single-entry memo would make k per word.
const inflN, inflK = 64, 16

func TestInflatedWriteQueriesPerReaderSerial(t *testing.T) {
	e := newEnv(allPrecede)
	for batch := 0; batch < 2; batch++ {
		base := uint64(1 + batch*inflN)
		inflate(e.read, base, inflN, inflK)
		if q := e.reach.queries; q != uint64(batch*inflK) {
			t.Fatalf("batch %d: reads of fresh words made %d queries", batch, q-uint64(batch*inflK))
		}
		e.write(base, inflN, 100)
		if got, want := e.reach.queries, uint64((batch+1)*inflK); got != want {
			t.Fatalf("batch %d: %d queries in total, want %d", batch, got, want)
		}
	}
	st := e.h.Stats()
	if want := uint64(2 * inflK * (inflN - 1)); st.MemoHits != want {
		t.Fatalf("MemoHits = %d, want %d", st.MemoHits, want)
	}
	if st.EpochInflations != 2*inflN || st.EpochDeflations != 2*inflN || st.SpillEntries != 0 {
		t.Fatalf("inflation bookkeeping: %+v", st)
	}
	if len(e.races) != 0 {
		t.Fatalf("ordered write raced: %v", e.races[0])
	}
}

// When one write is checked as several batches, one per page, every batch
// starts with its own empty cache, so the same write makes k queries per
// batch.
func TestInflatedWriteQueriesPerReaderFanOut(t *testing.T) {
	reach := &relReach{rel: allPrecede}
	p := newChunkEnv(reach, 3, 1)
	base := uint64(pageSize - inflN/2) // two chunks, one per page
	inflate(p.read, base, inflN, inflK)
	if q := reach.queries; q != 0 {
		t.Fatalf("reads of fresh words made %d queries", q)
	}
	chunks := p.chunks
	p.write(base, inflN, 100)
	if got, want := reach.queries, uint64(inflK*(p.chunks-chunks)); got != want || p.chunks-chunks != 2 {
		t.Fatalf("chunked write made %d queries over %d chunks, want %d (k per chunk)", got, p.chunks-chunks, want)
	}
	st := p.h.Stats()
	if st.EpochDeflations != inflN || st.SpillEntries != 0 {
		t.Fatalf("chunked bookkeeping: %+v", st)
	}
	if len(p.races) != 0 {
		t.Fatalf("ordered write raced: %v", p.races[0])
	}
}

// Two checkers taking turns over one History, one batch each, pay k
// queries per batch too: each batch starts with its checker's cache cold.
func TestInflatedWriteQueriesPerReaderView(t *testing.T) {
	reach := &relReach{rel: allPrecede}
	h := NewHistory()
	checkers := [2]*Checker{NewChecker(h, reach), NewChecker(h, reach)}
	turn := 0
	batch := func(s core.StrandID, op func(c *Checker)) {
		c := checkers[turn%2]
		turn++
		c.Begin(s)
		op(c)
		if n := len(c.Events()); n != 0 {
			t.Fatalf("ordered access raced %d times", n)
		}
		c.End()
	}
	for b := 0; b < 2; b++ {
		base := uint64(1 + b*inflN)
		inflate(func(addr uint64, words int, s core.StrandID) {
			batch(s, func(c *Checker) { c.ReadRange(addr, words) })
		}, base, inflN, inflK)
		batch(100, func(c *Checker) { c.WriteRange(base, inflN) })
		if got, want := reach.queries, uint64((b+1)*inflK); got != want {
			t.Fatalf("batch %d: %d queries in total, want %d", b, got, want)
		}
	}
	if st := h.Stats(); st.MemoHits != uint64(2*inflK*(inflN-1)) {
		t.Fatalf("MemoHits = %d, want %d", st.MemoHits, 2*inflK*(inflN-1))
	}
}

// TestEpochInflateDeflate pins the read-state machine's transitions and
// counters: a second distinct reader inflates (spill entered), a write
// install deflates, and the next single reader re-enters the inline state
// with no residual spill entries.
func TestEpochInflateDeflate(t *testing.T) {
	e := newEnv(seqRel(1, 5, 9, 12))
	e.write(1, 4, 1)
	e.read(1, 4, 5) // single-reader state
	st := e.h.Stats()
	if st.EpochInflations != 0 || st.SpillEntries != 0 {
		t.Fatalf("single reader inflated: %+v", st)
	}
	e.read(1, 4, 9) // contention: inflate
	st = e.h.Stats()
	if st.EpochInflations != 4 || st.SpillEntries != 4 {
		t.Fatalf("after second reader: inflations = %d, spill = %d, want 4, 4",
			st.EpochInflations, st.SpillEntries)
	}
	e.write(1, 4, 12) // ordered write: deflate
	st = e.h.Stats()
	if st.EpochDeflations != 4 || st.SpillEntries != 0 {
		t.Fatalf("after write install: deflations = %d, spill = %d, want 4, 0",
			st.EpochDeflations, st.SpillEntries)
	}
	e.read(1, 4, 5) // back to single-reader, no re-inflation
	st = e.h.Stats()
	if st.EpochInflations != 4 || st.SpillEntries != 0 {
		t.Fatalf("post-deflation reader re-inflated: %+v", st)
	}
	if len(e.races) != 0 {
		t.Fatalf("ordered cycle raced: %v", e.races[0])
	}
}

// TestVerdictCacheInvalidation pins the points where cached verdicts die:
// every new batch, and stamp wraparound.
func TestVerdictCacheInvalidation(t *testing.T) {
	e := newEnv(allPrecede)
	inflate(e.read, 1, 4, 3)
	e.batch(100, func(c *Checker) {
		c.WriteRange(1, 1) // 3 queries
		c.WriteRange(2, 1) // same batch: 3 hits
	})
	e.write(3, 1, 100) // a new batch of the same strand: 3 more
	e.write(4, 1, 101) // a new batch and strand: 3 more
	if got := e.reach.queries; got != 9 {
		t.Fatalf("queries = %d, want 9", got)
	}

	var v verdictCache
	var hits uint64
	v.precedes(5, 9, e.reach, &hits) // cached under stamp 0
	v.stamp = ^uint32(0)             // 2^32-1 resets later, slot untouched
	v.reset()                        // back to stamp 0
	v.precedes(5, 9, e.reach, &hits)
	if hits != 0 {
		t.Fatal("a verdict survived stamp wraparound")
	}
	v.precedes(5, 9, e.reach, &hits)
	if hits != 1 {
		t.Fatal("the cache stopped hitting after wraparound")
	}
}

// TestSpillSlotsRecycle: a deflated slot returns to the free list with its
// capacity, and the next inflation reuses it instead of growing the slab.
// The reads are one word each, so every word holds its own slot (range
// reads would share one slot per page segment).
func TestSpillSlotsRecycle(t *testing.T) {
	e := newEnv(allPrecede)
	perWord := func(addr uint64, words int, s core.StrandID) {
		for i := 0; i < words; i++ {
			e.read(addr+uint64(i), 1, s)
		}
	}
	const n = spillSegSize + 5 // spans two segments
	for cycle := 0; cycle < 3; cycle++ {
		inflate(perWord, 1, n, 4)
		if e.h.spill.next != n {
			t.Fatalf("cycle %d: %d slots handed out, want %d", cycle, e.h.spill.next, n)
		}
		if got := e.h.Stats().SpillEntries; got != 3*n {
			t.Fatalf("cycle %d: SpillEntries = %d, want %d", cycle, got, 3*n)
		}
		e.write(1, n, core.StrandID(100+cycle))
		if len(e.h.spill.free) != n {
			t.Fatalf("cycle %d: %d free slots after the write, want %d", cycle, len(e.h.spill.free), n)
		}
	}
	if c := cap(*e.h.spill.list(0)); c < 4 {
		t.Fatalf("recycled slot lost its capacity (cap %d)", c)
	}
}
