package shadow

import (
	"testing"

	"futurerd/internal/core"
)

// epochReach is relReach plus a controllable EpochOrdered, standing in for
// an algorithm with the EpochConcurrent capability. The epoch function is
// deliberately independent of rel so tests can probe the shadow layer's
// contract in isolation: the layer must trust a true answer (skip the
// writer query) and fall back to the full protocol on false.
type epochReach struct {
	relReach
	epoch      func(r, s core.StrandID) bool
	epochCalls int64
}

func (e *epochReach) EpochOrdered(r, s core.StrandID) bool {
	e.epochCalls++
	return e.epoch(r, s)
}

// newEpochEnv builds an env whose Reach and Epoch are one epochReach.
func newEpochEnv(rel, epoch func(u, v core.StrandID) bool) (*env, *epochReach) {
	e := newEnv(rel)
	er := &epochReach{relReach: relReach{rel: rel}, epoch: epoch}
	e.reach = &er.relReach
	e.ctx = Ctx{Reach: er, Epoch: er}
	return e, er
}

// TestEpochTransferSkipsWriterQuery: a second reader of stamped words
// makes zero writer queries when EpochOrdered transfers the stamp's
// verdict — across a generation bump — and still appends itself, so a
// later parallel writer races against the correct reader.
func TestEpochTransferSkipsWriterQuery(t *testing.T) {
	const n = 64
	e, er := newEpochEnv(seqRel(1), func(r, s core.StrandID) bool {
		return r == 5 && s == 9
	})
	e.write(1, n, 1)
	e.ctx.Gen = 2
	e.read(1, n, 5) // proves writer 1 ≺ 5, stamps 5
	q1 := er.queries
	e.ctx.Gen = 3
	e.read(1, n, 9) // stamp transfer: 5's verdict serves 9
	if q := er.queries; q != q1 {
		t.Fatalf("epoch-transferred read made %d writer queries, want 0", q-q1)
	}
	if got := e.h.Stats().EpochHits; got != n {
		t.Fatalf("EpochHits = %d, want %d", got, n)
	}
	if n := er.epochCalls; n != 1 {
		t.Fatalf("EpochOrdered called %d times, want 1 (memoized per stamp holder)", n)
	}
	if len(e.races) != 0 {
		t.Fatalf("transferred reads raced: %v", e.races[0])
	}
	// Strand 10 is parallel with everything: its write must race against
	// reader 5 (the inline slot), proving the transferred read kept the
	// reference protocol's racer-identity state.
	e.write(1, 1, 10)
	if len(e.races) != 1 || e.races[0].Racer.Prev != 5 || e.races[0].Racer.PrevWrite {
		t.Fatalf("write over transferred words: races = %+v, want one read race against 5", e.races)
	}
}

// TestEpochTransferFallsBack: with EpochOrdered answering false, a second
// reader pays the full writer query — the stamp never masks the protocol.
func TestEpochTransferFallsBack(t *testing.T) {
	const n = 16
	e, er := newEpochEnv(seqRel(1), func(r, s core.StrandID) bool { return false })
	e.write(1, n, 1)
	e.ctx.Gen = 2
	e.read(1, n, 5)
	q1 := er.queries
	e.ctx.Gen = 3
	e.read(1, n, 9) // no transfer: full protocol
	if q := er.queries; q == q1 {
		t.Fatal("reader 9 made no writer queries despite EpochOrdered == false")
	}
	if got := e.h.Stats().EpochHits; got != 0 {
		t.Fatalf("EpochHits = %d, want 0", got)
	}
}

// TestEpochTransferNeverMasksRace: EpochOrdered is only consulted for the
// stamped reader; a racing writer still reports. The stamp holder's
// verdict was against the word's writer — after a new parallel write
// installs, the stamp is gone and the next read races.
func TestEpochTransferNeverMasksRace(t *testing.T) {
	// Everything transfers; only writer 1 is ordered before anyone.
	e, _ := newEpochEnv(seqRel(1), func(r, s core.StrandID) bool { return true })
	e.write(1, 8, 1)
	e.ctx.Gen = 2
	e.read(1, 8, 5) // race-free, stamps 5
	e.write(1, 8, 10)
	if len(e.races) != 8 {
		t.Fatalf("parallel write over stamped words reported %d races, want 8", len(e.races))
	}
	e.races = e.races[:0]
	e.ctx.Gen = 3
	e.read(1, 8, 5) // stamp died with the write; 10 ∥ 5 races
	if len(e.races) != 8 {
		t.Fatalf("re-read after install reported %d races, want 8 (stale stamp transferred)",
			len(e.races))
	}
}

// TestEpochInflateDeflate pins the read-state machine's transitions and
// counters: a second distinct reader inflates (spill entered), a write
// install deflates, and the next single reader re-enters the inline state
// with no residual spill entries.
func TestEpochInflateDeflate(t *testing.T) {
	e := newEnv(seqRel(1, 5, 9, 12))
	e.write(1, 4, 1)
	e.ctx.Gen = 2
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
	e.ctx.Gen = 3
	e.read(1, 4, 5) // back to single-reader, no re-inflation
	st = e.h.Stats()
	if st.EpochInflations != 4 || st.SpillEntries != 0 {
		t.Fatalf("post-deflation reader re-inflated: %+v", st)
	}
	if len(e.races) != 0 {
		t.Fatalf("ordered cycle raced: %v", e.races[0])
	}
}

// TestEpochNilCapability: without an EpochConcurrent (plain relReach), a
// different reader's stamp is never consulted — the full protocol runs.
func TestEpochNilCapability(t *testing.T) {
	const n = 8
	e := newEnv(seqRel(1))
	e.write(1, n, 1)
	e.ctx.Gen = 2
	e.read(1, n, 5)
	q1 := e.reach.queries
	e.ctx.Gen = 3
	e.read(1, n, 9)
	if q := e.reach.queries; q == q1 {
		t.Fatal("nil Epoch capability still skipped the writer query")
	}
	if got := e.h.Stats().EpochHits; got != 0 {
		t.Fatalf("EpochHits = %d with nil capability, want 0", got)
	}
}
