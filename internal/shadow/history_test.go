package shadow

import (
	"testing"

	"futurerd/internal/core"
)

// prec builds a precedes predicate from a set of strands considered
// sequential ancestors of the current strand.
func prec(before ...core.StrandID) func(core.StrandID) bool {
	set := map[core.StrandID]bool{}
	for _, s := range before {
		set[s] = true
	}
	return func(u core.StrandID) bool { return set[u] }
}

func TestReadAfterOrderedWrite(t *testing.T) {
	h := NewHistory()
	if _, raced := h.Write(10, 1, prec()); raced {
		t.Fatal("first write raced")
	}
	if _, raced := h.Read(10, 2, prec(1)); raced {
		t.Fatal("ordered read raced")
	}
}

func TestReadAfterParallelWriteRaces(t *testing.T) {
	h := NewHistory()
	h.Write(10, 1, prec())
	r, raced := h.Read(10, 2, prec()) // strand 1 not an ancestor
	if !raced || r.Prev != 1 || !r.PrevWrite {
		t.Fatalf("want race with writer 1, got %+v raced=%v", r, raced)
	}
}

func TestWriteChecksAllReaders(t *testing.T) {
	h := NewHistory()
	h.Write(5, 1, prec())
	h.Read(5, 2, prec(1))
	h.Read(5, 3, prec(1))
	h.Read(5, 4, prec(1))
	// Strand 5 is ordered after readers 2 and 3 but parallel with 4.
	r, raced := h.Write(5, 5, prec(1, 2, 3))
	if !raced || r.Prev != 4 || r.PrevWrite {
		t.Fatalf("want race with reader 4, got %+v raced=%v", r, raced)
	}
}

func TestWriteFlushesReaders(t *testing.T) {
	h := NewHistory()
	h.Read(7, 2, prec())
	h.Read(7, 3, prec())
	if _, raced := h.Write(7, 4, prec(2, 3)); raced {
		t.Fatal("ordered write raced")
	}
	// Readers flushed: a new parallel-with-2 writer only checks against 4.
	if _, raced := h.Write(7, 5, prec(4)); raced {
		t.Fatal("write after flush raced against stale readers")
	}
	st := h.Stats()
	if st.ReaderFlushes != 1 {
		t.Fatalf("ReaderFlushes = %d, want 1", st.ReaderFlushes)
	}
}

func TestSameStrandNeverRaces(t *testing.T) {
	h := NewHistory()
	h.Write(3, 9, prec())
	if _, raced := h.Write(3, 9, prec()); raced {
		t.Fatal("same-strand write-write raced")
	}
	if _, raced := h.Read(3, 9, prec()); raced {
		t.Fatal("same-strand read raced")
	}
}

func TestReaderDeduplication(t *testing.T) {
	h := NewHistory()
	for i := 0; i < 100; i++ {
		h.Read(1, 2, prec())
	}
	st := h.Stats()
	if st.ReaderAppends != 1 {
		t.Fatalf("ReaderAppends = %d, want 1 (same strand deduplicated)", st.ReaderAppends)
	}
	// Alternating strands: inline slot + last-element dedupe still bounds
	// the growth to the number of distinct alternations.
	h2 := NewHistory()
	h2.Read(1, 2, prec())
	h2.Read(1, 3, prec())
	h2.Read(1, 3, prec())
	h2.Read(1, 2, prec()) // the first reader, 2, dedupes
	if got := h2.Stats().ReaderAppends; got != 2 {
		t.Fatalf("ReaderAppends = %d, want 2", got)
	}
}

func TestReadRaceDoesNotPoisonHistory(t *testing.T) {
	// Paper protocol: on a racy read the reader is not appended.
	h := NewHistory()
	h.Write(1, 1, prec())
	if _, raced := h.Read(1, 2, prec()); !raced {
		t.Fatal("expected race")
	}
	// A subsequent ordered write should not race against strand 2.
	if _, raced := h.Write(1, 3, prec(1)); raced {
		t.Fatal("racy read leaked into reader list")
	}
}

func TestPagesSparse(t *testing.T) {
	h := NewHistory()
	h.Write(1, 1, prec())
	h.Write(1<<30, 1, prec())
	if got := h.Stats().TouchedPages; got != 2 {
		t.Fatalf("TouchedPages = %d, want 2", got)
	}
	// TouchRange decodes only; it must not materialize pages.
	c := NewChecker(h, nil)
	c.Begin(1)
	c.TouchRange(1<<40, 1)
	c.End()
	if got := h.Stats().TouchedPages; got != 2 {
		t.Fatalf("TouchedPages after TouchRange = %d, want 2", got)
	}
}

func TestDistinctAddressesIndependent(t *testing.T) {
	h := NewHistory()
	h.Write(100, 1, prec())
	if _, raced := h.Write(101, 2, prec()); raced {
		t.Fatal("neighboring addresses interfered")
	}
}

func BenchmarkHistoryWriteRead(b *testing.B) {
	h := NewHistory()
	yes := func(core.StrandID) bool { return true }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i % 4096)
		h.Write(addr, core.StrandID(i%1000+1), yes)
		h.Read(addr, core.StrandID(i%1000+2), yes)
	}
}
