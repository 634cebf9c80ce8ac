package shadow

import (
	"testing"

	"futurerd/internal/core"
)

// These tests pin the read-epoch fast path: a strand re-reading words it
// already read race-free must skip the reachability layer entirely — in
// any construct generation — without changing a single verdict.

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
// interleaved-writer range by one strand at a fixed generation must make
// zero reachability queries after the first pass, and count every
// skipped word.
func TestReadSharedRepeatZeroQueries(t *testing.T) {
	const n, blk, passes = 4096 + 100, 64, 5
	e := newEnv(seqRel(1, 2))
	writeInterleaved(e.write, n, blk, 1, 2)
	e.ctx.Gen = 7 // a fresh generation for the reader
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
		t.Fatalf("re-reads at a fixed generation made %d extra reachability queries, want 0",
			q-firstQ)
	}
	if got, want := e.h.Stats().ReadSharedSkips, uint64((passes-1)*n); got != want {
		t.Fatalf("ReadSharedSkips = %d, want %d", got, want)
	}
	if len(e.races) != 0 {
		t.Fatalf("race-free re-reads raced: %v", e.races[0])
	}
}

// TestReadSharedStampDiesWithWrite: a write between reads invalidates the
// summary, so the next read runs the full protocol again (and a racing
// writer is still caught — the stamp can never mask a race).
func TestReadSharedStampDiesWithWrite(t *testing.T) {
	// Only writer 1 precedes everything; strands 9 and 10 are mutually
	// parallel.
	e := newEnv(seqRel(1))
	e.write(1, 8, 1)
	e.ctx.Gen = 5
	e.read(1, 8, 9) // stamps (9, gen 5)
	q1 := e.reach.queries
	e.read(1, 8, 9) // skips
	if q := e.reach.queries; q != q1 {
		t.Fatalf("stamped re-read queried (%d extra)", q-q1)
	}
	// Writer 10 is parallel with reader 9: every word races, and the
	// install clears both the reader list and the summary.
	e.write(1, 8, 10)
	if len(e.races) != 8 {
		t.Fatalf("parallel write over stamped words reported %d races, want 8", len(e.races))
	}
	e.races = e.races[:0]
	// Reader 9 re-reads at the same generation: the stamp must be gone,
	// and the new writer 10 is parallel with 9 — every word must race.
	e.read(1, 8, 9)
	if len(e.races) != 8 {
		t.Fatalf("re-read after clearing write reported %d races, want 8 (stamp masked a race)",
			len(e.races))
	}
}

// TestReadSharedStampPerStrand: a second strand re-reading the same words
// at its own generation re-proves its own verdict; the first strand's
// stamp never answers for it.
func TestReadSharedStampPerStrand(t *testing.T) {
	// Writer 1 precedes readers 2 and 3.
	e := newEnv(seqRel(1))
	e.write(1, 16, 1)
	e.ctx.Gen = 2
	e.read(1, 16, 2)
	q1 := e.reach.queries
	e.ctx.Gen = 3
	e.read(1, 16, 3) // different strand: must query again
	if q := e.reach.queries; q == q1 {
		t.Fatal("second strand's read was served by the first strand's stamp")
	}
	sk1 := e.h.Stats().ReadSharedSkips
	e.read(1, 16, 3) // strand 3's own re-read now skips
	if got := e.h.Stats().ReadSharedSkips; got != sk1+16 {
		t.Fatalf("ReadSharedSkips = %d, want %d", got, sk1+16)
	}
	if len(e.races) != 0 {
		t.Fatalf("ordered reads raced: %v", e.races[0])
	}
}

// TestReadSharedStampSurvivesGenerations: the stamp carries forward across
// construct generations — a re-read by the same strand in a later window
// makes zero extra reachability queries. (The engine only keeps a strand
// current across a generation bump at an empty sync, which mutates
// nothing, so the stamped verdict is still in force.)
func TestReadSharedStampSurvivesGenerations(t *testing.T) {
	e := newEnv(seqRel(1))
	e.write(1, 32, 1)
	e.ctx.Gen = 4
	e.read(1, 32, 5)
	q1 := e.reach.queries
	sk := e.h.Stats().ReadSharedSkips
	e.ctx.Gen = 6
	e.read(1, 32, 5) // later generation: the stamp still serves
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

// TestReadSharedStampHugeGenerations: the stamp carries no generation
// bits, so runs past any 32-bit boundary keep the fast path (the old
// truncated-stamp wrap hazard is structurally gone).
func TestReadSharedStampHugeGenerations(t *testing.T) {
	e := newEnv(seqRel(1))
	e.write(1, 4, 1)
	e.ctx.Gen = (1 << 32) + 5
	e.read(1, 4, 2)
	e.read(1, 4, 2)
	if got := e.h.Stats().ReadSharedSkips; got != 4 {
		t.Fatalf("ReadSharedSkips = %d past the 32-bit boundary, want 4", got)
	}
	if len(e.races) != 0 {
		t.Fatalf("ordered reads raced: %v", e.races[0])
	}
}
