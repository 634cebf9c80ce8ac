package shadow

import (
	"testing"

	"futurerd/internal/core"
)

// These tests pin the read-shared fast path: a strand re-reading words
// whose reader lists already record it must skip the reachability layer
// entirely — in any construct generation — without changing a single
// verdict.

// writeInterleaved installs an alternating last-writer pattern (strands
// w1/w2 in blocks of blk words) over [1, 1+n) so a later reader cannot be
// served by the owned-word filter and must query each writer.
func writeInterleaved(write func(addr uint64, words int, s core.StrandID), n, blk int, w1, w2 core.StrandID) {
	for base := 0; base < n; base += blk {
		s := w1
		if (base/blk)%2 == 1 {
			s = w2
		}
		end := base + blk
		if end > n {
			end = n
		}
		write(uint64(1+base), end-base, s)
	}
}

// TestReadSharedRepeatZeroQueries: repeated re-reads of an
// interleaved-writer range by one strand must make zero reachability
// queries after the first pass, and count every skipped word.
func TestReadSharedRepeatZeroQueries(t *testing.T) {
	const n, blk, passes = 4096 + 100, 64, 5
	e := newEnv(seqRel(1, 2))
	writeInterleaved(e.write, n, blk, 1, 2)
	reader := core.StrandID(9)
	e.read(1, n, reader)
	firstQ := e.reach.queries
	if firstQ == 0 {
		t.Fatal("first pass made no queries; the interleaved pattern is broken")
	}
	for p := 1; p < passes; p++ {
		e.read(1, n, reader)
	}
	if q := e.reach.queries; q != firstQ {
		t.Fatalf("re-reads made %d extra reachability queries, want 0",
			q-firstQ)
	}
	if got, want := e.h.Stats().ReadSharedSkips, uint64((passes-1)*n); got != want {
		t.Fatalf("ReadSharedSkips = %d, want %d", got, want)
	}
	if len(e.races) != 0 {
		t.Fatalf("race-free re-reads raced: %v", e.races[0])
	}
}

// TestReadSharedStampDiesWithWrite: a write between reads empties the
// reader list, so the next read runs the full protocol again (and a
// racing writer is still caught — a list entry can never mask a race).
func TestReadSharedStampDiesWithWrite(t *testing.T) {
	// Only writer 1 precedes everything; strands 9 and 10 are mutually
	// parallel.
	e := newEnv(seqRel(1))
	e.write(1, 8, 1)
	e.read(1, 8, 9) // records 9
	q1 := e.reach.queries
	e.read(1, 8, 9) // skips
	if q := e.reach.queries; q != q1 {
		t.Fatalf("recorded re-read queried (%d extra)", q-q1)
	}
	// Writer 10 is parallel with reader 9: every word races, and the
	// install empties the reader list.
	e.write(1, 8, 10)
	if len(e.races) != 8 {
		t.Fatalf("parallel write over recorded words reported %d races, want 8", len(e.races))
	}
	e.races = e.races[:0]
	// Reader 9 re-reads: its entry must be gone, and the new writer 10 is
	// parallel with 9 — every word must race.
	e.read(1, 8, 9)
	if len(e.races) != 8 {
		t.Fatalf("re-read after clearing write reported %d races, want 8 (list entry masked a race)",
			len(e.races))
	}
}

// TestReadSharedStampPerStrand: a second strand reading the same words
// proves its own verdict; the first strand's list entry never answers for
// it. Once both are listed, either one's re-read skips — the last entry
// and the first, which is no longer the most recent reader.
func TestReadSharedStampPerStrand(t *testing.T) {
	// Writer 1 precedes readers 2 and 3.
	e := newEnv(seqRel(1))
	e.write(1, 16, 1)
	e.read(1, 16, 2)
	q1 := e.reach.queries
	e.read(1, 16, 3) // different strand: must query again
	if q := e.reach.queries; q == q1 {
		t.Fatal("second strand's read was served by the first strand's list entry")
	}
	for _, s := range []core.StrandID{3, 2} { // the list's last entry, then its first
		q, sk := e.reach.queries, e.h.Stats().ReadSharedSkips
		e.read(1, 16, s)
		if got := e.h.Stats().ReadSharedSkips; got != sk+16 {
			t.Fatalf("strand %d: ReadSharedSkips = %d, want %d", s, got, sk+16)
		}
		if e.reach.queries != q {
			t.Fatalf("strand %d's recorded re-read made %d queries", s, e.reach.queries-q)
		}
	}
	if len(e.races) != 0 {
		t.Fatalf("ordered reads raced: %v", e.races[0])
	}
}

// TestReadSharedStampSurvivesGenerations: a list entry carries forward
// across batches — a re-read by the same strand in a later batch makes
// zero extra reachability queries. (The engine only keeps a strand
// current across a generation bump at an empty sync, which mutates
// nothing, so the recorded verdict is still in force.)
func TestReadSharedStampSurvivesGenerations(t *testing.T) {
	e := newEnv(seqRel(1))
	e.write(1, 32, 1)
	e.read(1, 32, 5)
	q1 := e.reach.queries
	sk := e.h.Stats().ReadSharedSkips
	e.read(1, 32, 5) // a later batch: the entry still serves
	if q := e.reach.queries; q != q1 {
		t.Fatalf("cross-generation re-read made %d extra queries, want 0", q-q1)
	}
	if got := e.h.Stats().ReadSharedSkips; got != sk+32 {
		t.Fatalf("ReadSharedSkips = %d, want %d", got, sk+32)
	}
	if len(e.races) != 0 {
		t.Fatalf("ordered reads raced: %v", e.races[0])
	}
}

// TestReadSharedStampHugeGenerations: the skip reads the reader list and
// no generation, so no generation count can wrap it: a re-read in the
// next batch skips every word.
func TestReadSharedStampHugeGenerations(t *testing.T) {
	e := newEnv(seqRel(1))
	e.write(1, 4, 1)
	e.read(1, 4, 2)
	e.read(1, 4, 2)
	if got := e.h.Stats().ReadSharedSkips; got != 4 {
		t.Fatalf("ReadSharedSkips = %d, want 4", got)
	}
	if len(e.races) != 0 {
		t.Fatalf("ordered reads raced: %v", e.races[0])
	}
}
