package shadow

import (
	"fmt"
	"testing"

	"futurerd/internal/core"
)

// These tests pin the checker's page-set cache: a direct-mapped set of
// PageSetSlots page lookups, kept across batches. PageCacheHits counts
// its hits exactly, so every test states how many lookups must miss.

// TestPageSetCollision alternates between pages pn and pn+PageSetSlots,
// which share one slot, so every lookup misses; the verdicts must still
// come from the right page. Width 1 takes the one-word paths, width 2
// the segment loops.
func TestPageSetCollision(t *testing.T) {
	const rounds = 50
	for _, width := range []int{1, 2} {
		t.Run(fmt.Sprint("width=", width), func(t *testing.T) {
			// Writer 1 precedes every strand, writer 2 none.
			e := newEnv(seqRel(1))
			a := uint64(3) << PageBits
			b := uint64(3+PageSetSlots) << PageBits
			at := func(base uint64, i int) uint64 { return base + uint64(i*width) }
			for i := 0; i < rounds; i++ {
				e.write(at(a, i), width, 1)
				e.write(at(b, i), width, 2)
			}
			e.batch(3, func(c *Checker) {
				for i := 0; i < rounds; i++ {
					c.ReadRange(at(a, i), width)
					c.ReadRange(at(b, i), width)
				}
			})
			if len(e.races) != rounds*width {
				t.Fatalf("%d races, want %d (one per word of page b)", len(e.races), rounds*width)
			}
			for i, ev := range e.races {
				if want := at(b, 0) + uint64(i); ev.Addr != want || ev.Racer.Prev != 2 || !ev.Racer.PrevWrite || ev.Write {
					t.Fatalf("race %d = %+v, want a read racing writer 2 at %#x", i, ev, want)
				}
			}
			st := e.h.Stats()
			if st.PageCacheHits != 0 {
				t.Fatalf("PageCacheHits = %d, want 0: pages %d and %d share a slot",
					st.PageCacheHits, a>>PageBits, b>>PageBits)
			}
			if st.TouchedPages != 2 {
				t.Fatalf("TouchedPages = %d, want 2", st.TouchedPages)
			}
		})
	}
}

// TestPageSetInterleavedStreams runs lcs's cell shape: each cell is one
// batch, by its own strand, that reads a[i] and bs[i] and writes d[i],
// three arrays on pages in distinct slots. Only the first lookup of each
// page misses, so the set survives every Begin/End.
func TestPageSetInterleavedStreams(t *testing.T) {
	const cells = 1000
	a, bs, d := uint64(5)<<PageBits, uint64(6)<<PageBits+17, uint64(9)<<PageBits+3
	e := newEnv(seqRel(1))
	for i := uint64(0); i < cells; i++ {
		e.batch(core.StrandID(2+i), func(c *Checker) {
			c.ReadRange(a+i, 1)
			c.ReadRange(bs+i, 1)
			c.WriteRange(d+i, 1)
		})
	}
	st := e.h.Stats()
	if lookups := uint64(3 * cells); st.PageCacheHits != lookups-3 {
		t.Fatalf("PageCacheHits = %d, want %d (lookups - 3)", st.PageCacheHits, lookups-3)
	}
	if len(e.races) != 0 {
		t.Fatalf("race-free cells raced: %v", e.races[0])
	}
}

// pageStreams returns a checker, inside a batch of strand 1, that has
// written every word of pages 0..pages-1, for the streams below to
// rewrite.
func pageStreams(pages int) *Checker {
	c := NewChecker(NewHistory(), &relReach{rel: seqRel()})
	c.Begin(1)
	for pg := 0; pg < pages; pg++ {
		for off := uint64(0); off < pageSize; off++ {
			c.WriteRange(uint64(pg)<<PageBits|off, 1)
		}
	}
	return c
}

// TestCheckerPageStreamsAllocs requires the streams that
// BenchmarkCheckerPageStreams times to allocate nothing, both when the
// pages fit the page-set cache and when their misses go to the page
// table. Each run is one pass over the pages, so a miss path that
// allocates shows even though only some writes miss.
func TestCheckerPageStreamsAllocs(t *testing.T) {
	for _, pages := range []int{3, 40} {
		c := pageStreams(pages)
		off := uint64(0)
		n := testing.AllocsPerRun(100, func() {
			for pg := 0; pg < pages; pg++ {
				c.WriteRange(uint64(pg)<<PageBits|off, 1)
			}
			off = (off + 1) & pageMask
		})
		if n != 0 {
			t.Errorf("pages=%d: %v allocations per pass, want 0", pages, n)
		}
		c.End()
	}
}

// BenchmarkCheckerPageStreams times one-word writes by one strand that
// cycle over a set of pages, the shape of a strand alternating between
// arrays: 3 pages fit the page-set cache, 40 pages overflow it, so
// their misses go to the page table. Every write is an owned rewrite,
// so ns/op is mostly the page lookup.
func BenchmarkCheckerPageStreams(b *testing.B) {
	for _, pages := range []int{3, 40} {
		b.Run(fmt.Sprint("pages=", pages), func(b *testing.B) {
			c := pageStreams(pages)
			b.ReportAllocs()
			b.ResetTimer()
			pg, off := 0, uint64(0)
			for i := 0; i < b.N; i++ {
				c.WriteRange(uint64(pg)<<PageBits|off, 1)
				if pg++; pg == pages {
					pg, off = 0, (off+1)&pageMask
				}
			}
			b.StopTimer()
			c.End()
		})
	}
}
