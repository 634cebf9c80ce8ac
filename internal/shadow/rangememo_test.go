package shadow

import (
	"testing"

	"futurerd/internal/core"
)

// These tests pin the checker's range memo: an exact repeat of a
// multi-word range settled earlier in the batch must count exactly the
// skips the per-word loop would, and nothing may carry over a Begin.

// memoScript is one batch's ops, each a read or write of words words at
// addr.
type memoScript []struct {
	write bool
	addr  uint64
	words int
}

// run checks the script as one batch of strand s on c, whole ops or, when
// split, one word per call (the range memo never sees a one-word op).
func (sc memoScript) run(c *Checker, s core.StrandID, split bool) {
	c.Begin(s)
	for _, op := range sc {
		for a, n := op.addr, op.words; n > 0; {
			w := n
			if split {
				w = 1
			}
			if op.write {
				c.WriteRange(a, w)
			} else {
				c.ReadRange(a, w)
			}
			a, n = a+uint64(w), n-w
		}
	}
	c.End()
}

// checkSkips runs prep (a batch of strand 1) and then script as one batch
// of strand 2, once whole and once split into one-word calls, and
// requires both to end with the given skip counters. Strand 1 precedes
// strand 2, so nothing races.
func checkSkips(t *testing.T, prep, script memoScript, owned, shared uint64) {
	t.Helper()
	for _, split := range []bool{false, true} {
		e := newEnv(seqRel(1))
		prep.run(e.c, 1, split)
		before := e.h.Stats()
		script.run(e.c, 2, split)
		st := e.h.Stats()
		if got := st.OwnedSkips - before.OwnedSkips; got != owned {
			t.Errorf("split=%v: OwnedSkips = %d, want %d", split, got, owned)
		}
		if got := st.ReadSharedSkips - before.ReadSharedSkips; got != shared {
			t.Errorf("split=%v: ReadSharedSkips = %d, want %d", split, got, shared)
		}
	}
}

// TestRangeMemoOneWordWriteDrops: strand 2 reads eight words, which
// records it on each, then writes one of them alone, which makes that
// word its own. The exact re-read must find one owned word and seven
// recorded ones, as the one-word shape does: the one-word write has to
// drop the read entry.
func TestRangeMemoOneWordWriteDrops(t *testing.T) {
	const base = 100
	prep := memoScript{{true, base, 8}}
	script := memoScript{
		{false, base, 8},
		{true, base + 3, 1},
		{false, base, 8},
	}
	// The write runs the protocol (strand 2 is on the word's reader
	// list); the re-read skips 1 owned word and 7 recorded ones.
	checkSkips(t, prep, script, 1, 7)
}

// TestRangeMemoPartlyOwnedReread: strand 2 writes the upper half of a
// range and reads all of it, twice. The re-read splits its skips as its
// first read found them: four owned words, four recorded ones.
func TestRangeMemoPartlyOwnedReread(t *testing.T) {
	const base = 200
	prep := memoScript{{true, base, 8}}
	script := memoScript{
		{true, base + 4, 4},
		{false, base, 8},
		{false, base, 8},
	}
	// The write's four words are not skips (strand 1 wrote them); the
	// first read owns 4, the re-read owns 4 and read-shares 4.
	checkSkips(t, prep, script, 8, 4)
}

// TestRangeMemoRangeWriteDrops: a range write over part of a read range
// drops its entry too, and a write elsewhere leaves it.
func TestRangeMemoRangeWriteDrops(t *testing.T) {
	const base = 300
	prep := memoScript{{true, base, 16}, {true, base + 64, 8}}
	script := memoScript{
		{false, base, 16},
		{true, base + 64, 8}, // no overlap: the entry stays
		{false, base, 16},    // 16 shared
		{true, base + 12, 8}, // 4 owned skips on fresh words; 4 recorded words become owned
		{false, base, 16},    // 4 owned, 12 shared
	}
	checkSkips(t, prep, script, 4+4, 16+12)
}

// TestRangeMemoRepeatedWrite: once strand 2 has written a range (over
// strand 1's words, so no skips), a repeat write and a read of it each
// count one owned skip per word.
func TestRangeMemoRepeatedWrite(t *testing.T) {
	const base = pageSize - 5 // straddles a page boundary
	prep := memoScript{{true, base, 10}}
	script := memoScript{
		{true, base, 10},
		{true, base, 10},
		{false, base, 10},
	}
	checkSkips(t, prep, script, 20, 0)
}

// TestRangeMemoResetAtBegin: a range memoized in one batch must not answer
// in the next. Strand 2 reads and writes ranges that strand 1 wrote;
// strand 3, parallel with 1 and 2, then repeats them exactly in its own
// batch and must race on every word.
func TestRangeMemoResetAtBegin(t *testing.T) {
	const read, written = 1000, 2000
	e := newEnv(func(u, v core.StrandID) bool { return u == 1 && v == 2 })
	e.batch(1, func(c *Checker) { c.WriteRange(read, 8); c.WriteRange(written, 8) })
	e.batch(2, func(c *Checker) { c.ReadRange(read, 8); c.WriteRange(written, 8) })
	if len(e.races) != 0 {
		t.Fatalf("strand 2's ordered accesses raced: %v", e.races)
	}
	e.batch(3, func(c *Checker) { c.ReadRange(read, 8); c.WriteRange(written, 8) })
	if len(e.races) != 16 {
		t.Fatalf("strand 3's parallel accesses reported %d races, want 16", len(e.races))
	}
	for i, ev := range e.races {
		want := RaceEvent{Addr: read + uint64(i), Racer: Racer{Prev: 1, PrevWrite: true}}
		if i >= 8 {
			want = RaceEvent{Addr: written + uint64(i-8), Racer: Racer{Prev: 2, PrevWrite: true}, Write: true}
		}
		if ev != want {
			t.Fatalf("race %d = %+v, want %+v", i, ev, want)
		}
	}
}

// repeatedRows returns a checker over a history whose B and C rows have
// been through a few batches of rowBatch, so the reader lists settled.
func repeatedRows() (*Checker, *int) {
	c := NewChecker(NewHistory(), &relReach{rel: func(u, v core.StrandID) bool { return true }})
	n := 0
	for ; n < 4; n++ {
		rowBatch(c, core.StrandID(1+n%2))
	}
	return c, &n
}

// rowBatch is one batch of mm's base case at B=16 over 128-word rows: for
// each C row i and each k, the strand reads B row k and C row i and
// writes C row i, 16 words each. Successive batches alternate strands, so
// each batch's first access to a C row runs the protocol against the
// other strand's write and the rest repeat.
func rowBatch(c *Checker, s core.StrandID) {
	const rows, n, width = 16, 128, 16
	const b, cm = 1 << 20, 2 << 20
	c.Begin(s)
	for i := uint64(0); i < rows; i++ {
		for k := uint64(0); k < rows; k++ {
			c.ReadRange(b+k*n, width)
			c.ReadRange(cm+i*n, width)
			c.WriteRange(cm+i*n, width)
		}
	}
	c.End()
}

// TestCheckerRepeatedRowsAllocs requires the batches that
// BenchmarkCheckerRepeatedRows times to allocate nothing.
func TestCheckerRepeatedRowsAllocs(t *testing.T) {
	c, n := repeatedRows()
	if got := testing.AllocsPerRun(50, func() {
		rowBatch(c, core.StrandID(1+*n%2))
		*n++
	}); got != 0 {
		t.Fatalf("%v allocations per batch, want 0", got)
	}
}

// BenchmarkCheckerRepeatedRows times one batch of mm's base case (see
// rowBatch): 768 range ops of 16 words. All but 48 of them repeat a range
// settled earlier in the batch; the 48 are the first read of each B row
// and the first read and write of each C row.
func BenchmarkCheckerRepeatedRows(b *testing.B) {
	c, n := repeatedRows()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rowBatch(c, core.StrandID(1+*n%2))
		*n++
	}
}
