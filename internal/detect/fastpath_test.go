package detect

import (
	"testing"
)

// These tests pin the engine ↔ shadow fast-path integration: the bulk
// range operations must exercise the page cache, ownership skips and the
// verdict cache on realistic programs, while Verify mode proves the skipped
// reachability queries never change a verdict against the dag oracle.

// TestRangeOpsFindCrossPageRaces drives page-boundary-crossing ranges
// through spawned strands and checks the race set against ground truth
// (Verify makes the oracle answer every query that is still made).
func TestRangeOpsFindCrossPageRaces(t *testing.T) {
	const pageWords = 1 << 12 // shadow.PageBits
	base := uint64(1 << 20)
	n := pageWords + 64 // straddles two pages
	rep := NewEngine(Config{Mode: ModeMultiBagsPlus, Mem: MemFull, Verify: true, MaxRaces: 3 * pageWords}).
		Run(func(t *Task) {
			t.Spawn(func(c *Task) {
				c.WriteRange(base, n)
			})
			t.WriteRange(base, n) // parallel with the child: races on every word
			t.Sync()
			t.ReadRange(base, n) // ordered after the join: race free
		})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	for _, v := range rep.Violations {
		t.Fatalf("fast path changed a verdict: %s: %s", v.Kind, v.Detail)
	}
	if got := int(rep.Stats.RaceCount); got != n {
		t.Fatalf("RaceCount = %d, want %d (one per word of the parallel rewrite)", got, n)
	}
	if len(rep.Races) != n {
		t.Fatalf("len(Races) = %d, want %d", len(rep.Races), n)
	}
	sh := rep.Stats.Shadow
	if sh.MemoHits == 0 {
		t.Fatalf("bulk parallel rewrite made no memo hits: %+v", sh)
	}
	if sh.OwnedSkips == 0 {
		t.Fatalf("fast-path counters not exercised: %+v", sh)
	}
}

// TestOwnedRewriteMakesNoQueries checks the FastTrack-style property end
// to end: a strand re-reading and re-writing its own data performs zero
// reachability queries regardless of how much memory it touches.
func TestOwnedRewriteMakesNoQueries(t *testing.T) {
	const n = 4096
	rep := NewEngine(Config{Mode: ModeMultiBags, Mem: MemFull}).Run(func(t *Task) {
		for pass := 0; pass < 4; pass++ {
			t.WriteRange(1, n)
			t.ReadRange(1, n)
		}
	})
	if rep.Err != nil || rep.Racy() {
		t.Fatalf("owned rewrites misbehaved: err=%v races=%v", rep.Err, rep.Races)
	}
	if q := rep.Stats.Reach.Queries; q != 0 {
		t.Fatalf("owned rewrites made %d reachability queries, want 0", q)
	}
	sh := rep.Stats.Shadow
	if want := uint64(8 * n); sh.OwnedSkips != want {
		t.Fatalf("OwnedSkips = %d, want %d", sh.OwnedSkips, want)
	}
}

// TestRangeRaceDeduplicationAcrossWords checks that per-word races from a
// single bulk access flow through the usual reporting path (dedup by
// address, MaxRaces cap on the collected list, full RaceCount).
func TestRangeRaceDeduplicationAcrossWords(t *testing.T) {
	const n = 100
	rep := NewEngine(Config{Mode: ModeMultiBagsPlus, Mem: MemFull, MaxRaces: 10}).
		Run(func(t *Task) {
			t.Spawn(func(c *Task) { c.WriteRange(1, n) })
			t.ReadRange(1, n) // parallel with the child's writes
			t.Sync()
		})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if got := rep.Stats.RaceCount; got != n {
		t.Fatalf("RaceCount = %d, want %d", got, n)
	}
	if len(rep.Races) != 10 {
		t.Fatalf("len(Races) = %d, want MaxRaces=10", len(rep.Races))
	}
}
