package shadow

import (
	"reflect"
	"testing"

	"futurerd/internal/core"
)

// Strands of the run script: writers 1..16 own the page's 64-word blocks
// in stripes, readers 20..35 then read it all. Reader runRacer is
// parallel with writer runRacy, so every word of runRacy's blocks races.
const (
	runWriters, runBlock   = 16, 64
	runReader0, runReaders = 20, 16
	runRacy, runRacer      = 5, 27
)

// runScript writes page 1 in striped 64-word blocks, then has 16 readers
// each read the whole page and a 200-word range straddling into page 2,
// whose second half no one wrote. Every reader's page read meets runs of
// equal words that break only at block edges.
func runScript() []access {
	var sc []access
	for off := 0; off < pageSize; off += runBlock {
		s := core.StrandID(1 + off/runBlock%runWriters)
		sc = append(sc, access{s: s, write: true, off: off, words: runBlock})
	}
	for r := core.StrandID(0); r < runReaders; r++ {
		sc = append(sc,
			access{s: runReader0 + r, words: pageSize},
			access{s: runReader0 + r, off: pageSize - 100, words: 200})
	}
	return sc
}

// runRel orders every writer before every reader, except runRacy and
// runRacer.
func runRel(u, v core.StrandID) bool { return u != runRacy || v != runRacer }

// TestRunMatchesOneWordReads: a range read that checks runs of equal
// words at a time reports the race stream and every counter (page-cache
// hits aside) of the same reads made one word at a time in the same
// batches.
func TestRunMatchesOneWordReads(t *testing.T) {
	t.Run("epoch=nil", func(t *testing.T) {
		sc := runScript()
		reach := &relReach{rel: runRel}
		rangeH, wordH := NewHistory(), NewHistory()
		got := checkScript(NewChecker(rangeH, reach), sc, 1, false)
		want := checkScript(NewChecker(wordH, reach), sc, 1, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("race streams diverged: %d range events, %d one-word events", len(got), len(want))
		}
		// The racer's head word of each of runRacy's blocks races, and so
		// must the 63 words after it.
		if n := pageSize / runBlock / runWriters * runBlock; len(got) != n {
			t.Fatalf("%d races, want %d", len(got), n)
		}
		for _, ev := range got {
			if ev.Racer != (Racer{Prev: runRacy, PrevWrite: true}) || ev.Write {
				t.Fatalf("race %+v, want a read racing writer %d", ev, runRacy)
			}
		}
		gs, ws := rangeH.Stats(), wordH.Stats()
		gs.PageCacheHits, ws.PageCacheHits = 0, 0
		if gs != ws {
			t.Fatalf("counters diverged:\nrange    %+v\none-word %+v", gs, ws)
		}
		if gs.MemoHits == 0 || gs.SpillEntries == 0 {
			t.Fatalf("the script missed the verdict cache or the spill lists: %+v", gs)
		}
	})
}
