package shadow

import (
	"reflect"
	"testing"

	"futurerd/internal/core"
)

// access is one op of a shared-list script, at an offset into a page.
type access struct {
	s     core.StrandID
	write bool
	off   int
	words int
}

// sharedScript reads a full page with several strands, so its words share
// reader lists, then diverges single words and writes part of the page:
//
//   - strand 3 is parallel with writer 1, so its read races on every word
//     and records nothing;
//   - strand 50's one-word reads copy shared lists for a few words;
//   - writer 60 races with reader 4, writer 62 only with strand 50's
//     copies, writer 61 with reader 6 wherever it is still listed;
//   - rereads by 2 (the head of every list) change nothing, and a second
//     read by 7 appends it again behind 8 and 9.
func sharedScript() []access {
	sc := []access{{s: 1, write: true, words: pageSize}}
	for s := core.StrandID(2); s <= 7; s++ {
		sc = append(sc, access{s: s, words: pageSize})
	}
	for off := 0; off < pageSize; off += 97 {
		sc = append(sc, access{s: 50, off: off, words: 1})
	}
	return append(sc,
		access{s: 60, write: true, off: 100, words: 200},
		access{s: 62, write: true, off: 150, words: 3000},
		access{s: 2, off: 64, words: 512},
		access{s: 8, words: pageSize},
		access{s: 9, off: 1000, words: 2000},
		access{s: 7, off: 0, words: pageSize},
		access{s: 61, write: true, words: pageSize},
	)
}

// sharedRel orders every pair but the script's parallel ones.
func sharedRel(u, v core.StrandID) bool {
	type pair struct{ u, v core.StrandID }
	switch (pair{u, v}) {
	case pair{1, 3}, pair{4, 60}, pair{50, 60}, pair{50, 62}, pair{6, 61}:
		return false
	}
	return true
}

// refScript runs sc on page pn through the reference protocol.
func refScript(h *History, sc []access, pn uint64) []RaceEvent {
	var races []RaceEvent
	for _, a := range sc {
		precedes := func(u core.StrandID) bool { return sharedRel(u, a.s) }
		for i := 0; i < a.words; i++ {
			addr := pn<<PageBits + uint64(a.off+i)
			if a.write {
				if r, raced := h.Write(addr, a.s, precedes); raced {
					races = append(races, RaceEvent{Addr: addr, Racer: r, Write: true})
				}
			} else if r, raced := h.Read(addr, a.s, precedes); raced {
				races = append(races, RaceEvent{Addr: addr, Racer: r})
			}
		}
	}
	return races
}

// checkScript runs sc on page pn through c, one batch per op (or per word
// when perWord is set), and returns the race events in order.
func checkScript(c *Checker, sc []access, pn uint64, perWord bool) []RaceEvent {
	var races []RaceEvent
	for _, a := range sc {
		addr := pn<<PageBits + uint64(a.off)
		c.Begin(a.s)
		op := c.ReadRange
		if a.write {
			op = c.WriteRange
		}
		if perWord {
			for i := 0; i < a.words; i++ {
				op(addr+uint64(i), 1)
			}
		} else {
			op(addr, a.words)
		}
		races = append(races, c.Events()...)
		c.End()
	}
	return races
}

// sameLogicalLists compares the word-logical reader-list counters of two
// histories.
func sameLogicalLists(t *testing.T, got, want Stats) {
	t.Helper()
	if got.ReaderAppends != want.ReaderAppends || got.ReaderFlushes != want.ReaderFlushes ||
		got.EpochInflations != want.EpochInflations || got.EpochDeflations != want.EpochDeflations ||
		got.SpillEntries != want.SpillEntries {
		t.Fatalf("reader-list counters diverged:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestSharedListsMatchReference: words that share reader lists report the
// reference protocol's race stream, racer for racer, and keep the
// word-logical counters of a checker that never shares.
func TestSharedListsMatchReference(t *testing.T) {
	sc := sharedScript()
	ref := refScript(NewHistory(), sc, 1)
	if len(ref) < pageSize {
		t.Fatalf("the script raced %d times; it should race on every word at least once", len(ref))
	}

	reach := &relReach{rel: sharedRel}
	rangeH, wordH := NewHistory(), NewHistory()
	got := checkScript(NewChecker(rangeH, reach), sc, 1, false)
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("race stream diverged from the reference (%d vs %d events)", len(got), len(ref))
	}
	if perWord := checkScript(NewChecker(wordH, reach), sc, 1, true); !reflect.DeepEqual(perWord, ref) {
		t.Fatalf("one-word race stream diverged from the reference (%d vs %d events)", len(perWord), len(ref))
	}
	sameLogicalLists(t, rangeH.Stats(), wordH.Stats())
	if shared, own := rangeH.spill.next, wordH.spill.next; shared*64 > own {
		t.Fatalf("range reads handed out %d slots against %d one word at a time; the words did not share", shared, own)
	}
}

// TestSharedListsTwoCheckers runs the script on two adjacent pages, one
// checker per page, taking turns op by op over one History. The two
// pages' slots come from one spill segment, so the checkers share its
// count table; this pins that sharing stays page-private.
func TestSharedListsTwoCheckers(t *testing.T) {
	sc := sharedScript()
	refH := NewHistory()
	want := [2][]RaceEvent{refScript(refH, sc, 1), refScript(refH, sc, 2)}

	h := NewHistory()
	reach := &relReach{rel: sharedRel}
	checkers := [2]*Checker{NewChecker(h, reach), NewChecker(h, reach)}
	var got [2][]RaceEvent
	for _, a := range sc {
		for i, c := range checkers {
			got[i] = append(got[i], checkScript(c, []access{a}, uint64(1+i), false)...)
		}
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("page %d: race stream diverged from the reference (%d vs %d events)", 1+i, len(got[i]), len(want[i]))
		}
	}
	lone := NewHistory()
	checkScript(NewChecker(lone, reach), sc, 1, false)
	checkScript(NewChecker(lone, reach), sc, 2, false)
	sameLogicalLists(t, h.Stats(), lone.Stats())
	if h.spill.next >= spillSegSize {
		t.Fatalf("%d slots: the pages' lists did not land in one segment", h.spill.next)
	}
}

// TestSharedListScannedOnce: a write over words that share one inflated
// list scans it once per batch. With more readers than the verdict cache
// has slots, rescanning per word would re-query every evicted verdict.
func TestSharedListScannedOnce(t *testing.T) {
	const n, k = 1024, 2 * verdictSlots
	e := newEnv(allPrecede)
	inflate(e.read, 0, n, k)
	if e.h.spill.next > 2 {
		t.Fatalf("%d slots for one shared list and its copy", e.h.spill.next)
	}
	e.write(0, n, 1000)
	if q := e.reach.queries; q != k {
		t.Fatalf("the write made %d queries, want %d (one scan)", q, k)
	}
	st := e.h.Stats()
	if st.MemoHits != k*(n-1) || st.EpochDeflations != n || st.SpillEntries != 0 {
		t.Fatalf("memo hits %d (want %d), stats %+v", st.MemoHits, k*(n-1), st)
	}
	if len(e.h.spill.free) != int(e.h.spill.next) {
		t.Fatalf("%d of %d slots free after the write", len(e.h.spill.free), e.h.spill.next)
	}
}
