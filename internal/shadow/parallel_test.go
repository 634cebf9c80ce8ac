package shadow

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"futurerd/internal/core"
)

// parEnv drives several checkers concurrently over one History built for
// concurrent checkers, the way the consumer pool checks the stolen chunks
// of one batch: a range is cut at page-aligned chunk boundaries, each
// chunk is checked as its own batch by the next checker in turn, every
// checker runs on its own goroutine with the install audit armed, and the
// chunks' events are delivered in chunk (address) order.
type parEnv struct {
	h          *History
	cs         []*Checker
	ctx        Ctx
	chunkPages int
	chunks     int // chunks checked so far; also whose turn is next
	races      []RaceEvent
}

func newParEnv(ctx Ctx, checkers, chunkPages int) *parEnv {
	h := NewHistory(true)
	h.EnableInstallAudit()
	p := &parEnv{h: h, ctx: ctx, chunkPages: chunkPages}
	for i := 0; i < checkers; i++ {
		p.cs = append(p.cs, NewChecker(h, i))
	}
	return p
}

// run checks op over [addr, addr+words) for strand s.
func (p *parEnv) run(op func(c *Checker, addr uint64, words int), addr uint64, words int, s core.StrandID) {
	type chunk struct {
		addr uint64
		n    int
	}
	var chunks []chunk
	for words > 0 {
		end := (addr>>PageBits + uint64(p.chunkPages)) << PageBits
		n := int(min(uint64(words), end-addr))
		chunks = append(chunks, chunk{addr, n})
		addr += uint64(n)
		words -= n
	}
	first := p.chunks % len(p.cs) // the checker taking chunk 0
	p.chunks += len(chunks)
	events := make([][]RaceEvent, len(chunks))
	var wg sync.WaitGroup
	for ci, c := range p.cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := (ci - first + len(p.cs)) % len(p.cs); i < len(chunks); i += len(p.cs) {
				ch := chunks[i]
				c.Begin(&p.ctx, s)
				c.Claim([]PageClaim{{Lo: ch.addr >> PageBits, Hi: (ch.addr + uint64(ch.n) - 1) >> PageBits}})
				op(c, ch.addr, ch.n)
				events[i] = append([]RaceEvent(nil), c.Events()...)
				c.End()
			}
		}()
	}
	wg.Wait()
	for _, evs := range events {
		p.races = append(p.races, evs...)
	}
}

func (p *parEnv) read(addr uint64, words int, s core.StrandID) {
	p.run((*Checker).ReadRange, addr, words, s)
}

func (p *parEnv) write(addr uint64, words int, s core.StrandID) {
	p.run((*Checker).WriteRange, addr, words, s)
}

// TestPageForSharedContention hammers the striped materialization path:
// many goroutines resolve overlapping page sets concurrently, growing the
// directory as they go; every requester must get the same page instance
// per page number and the touched-page counter must count each page
// exactly once.
func TestPageForSharedContention(t *testing.T) {
	const (
		goroutines = 8
		pages      = 512
		first      = dirSize - pages/2 // straddle two directory nodes
	)
	h := NewHistory(true)
	got := make([][]*page, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := make([]*page, pages)
			// Different goroutines walk in different strides so lock
			// stripes are hit in varied orders.
			for i := 0; i < pages; i++ {
				pn := uint64((i*(g+1) + g) % pages)
				mine[pn] = h.pageFor(first + pn)
			}
			for i := 0; i < pages; i++ {
				pn := uint64(i)
				if mine[pn] == nil {
					mine[pn] = h.pageFor(first + pn)
				}
			}
			got[g] = mine
		}(g)
	}
	wg.Wait()
	for pn := 0; pn < pages; pn++ {
		want := got[0][pn]
		if want == nil {
			t.Fatalf("page %d never materialized", pn)
		}
		for g := 1; g < goroutines; g++ {
			if got[g][pn] != want {
				t.Fatalf("page %d: goroutine %d saw a different instance", pn, g)
			}
		}
		if h.pageFor(first+uint64(pn)) != want {
			t.Fatalf("a later lookup of page %d disagrees", pn)
		}
	}
	if tp := h.Stats().TouchedPages; tp != pages {
		t.Fatalf("TouchedPages = %d, want %d (each page counted once)", tp, pages)
	}
}

// TestParallelLargeRangeMatchesSerial runs a multi-page, multi-strand
// scenario through concurrent checkers, one page per chunk, and through a
// lone checker, and requires identical events and stats.
func TestParallelLargeRangeMatchesSerial(t *testing.T) {
	const words = 12*pageSize + 123                        // a dozen chunks
	base := uint64(pageSize - 57)                          // misaligned start
	rel := func(u, v core.StrandID) bool { return u == 1 } // only strand 1 precedes others

	serial := newEnv(rel)
	par := newParEnv(Ctx{Reach: &relReach{rel: rel}}, 4, 1)

	// Strand 1 writes everything; strand 2 reads it (ordered, race free);
	// strand 3 overwrites (parallel with 2: read races on every word).
	for _, step := range []struct {
		s     core.StrandID
		write bool
	}{{1, true}, {2, false}, {3, true}} {
		if step.write {
			serial.write(base, words, step.s)
			par.write(base, words, step.s)
		} else {
			serial.read(base, words, step.s)
			par.read(base, words, step.s)
		}
	}
	if len(serial.races) != words {
		t.Fatalf("lone checker found %d races, want %d", len(serial.races), words)
	}
	if !reflect.DeepEqual(par.races, serial.races) {
		t.Fatalf("concurrent checkers' events diverge from a lone checker's (%d vs %d events)",
			len(par.races), len(serial.races))
	}
	ss, ps := serial.h.Stats(), par.h.Stats()
	if ss.Reads != ps.Reads || ss.Writes != ps.Writes ||
		ss.ReaderAppends != ps.ReaderAppends || ss.ReaderFlushes != ps.ReaderFlushes ||
		ss.TouchedPages != ps.TouchedPages || ss.OwnedSkips != ps.OwnedSkips {
		t.Fatalf("stats diverged:\nserial %+v\npar    %+v", ss, ps)
	}
	if par.chunks < 3*12 {
		t.Fatalf("%d chunks, want several per range", par.chunks)
	}
}

// TestParallelSpilledReaders drives the locked spill path with concurrent
// checkers: several distinct readers per word, then a writer racing with
// some of them. Events must match a lone checker's exactly.
func TestParallelSpilledReaders(t *testing.T) {
	const words = 4 * pageSize // four chunks, one per page
	base := uint64(pageSize - 32)
	// Readers 2, 3, 4 are parallel with writer 6; 1 and 5 precede it.
	rel := func(u, v core.StrandID) bool { return u == 1 || u == 5 }
	serial := newEnv(rel)
	par := newParEnv(Ctx{Reach: &relReach{rel: rel}}, 3, 1)
	for _, s := range []core.StrandID{1, 2, 3, 4, 5} {
		serial.read(base, words, s)
		par.read(base, words, s)
	}
	serial.write(base, words, 6)
	par.write(base, words, 6)
	if len(serial.races) != words {
		t.Fatalf("serial: %d races, want %d (one racing reader per word)", len(serial.races), words)
	}
	if !reflect.DeepEqual(par.races, serial.races) {
		t.Fatalf("parallel spill events diverge\nserial: %v\npar:    %v",
			serial.races[:4], par.races[:4])
	}
	if st := par.h.Stats(); st.EpochInflations != words || st.SpillEntries != 0 {
		t.Fatalf("spill bookkeeping: %+v", st)
	}
	// After the install-on-race fix the writer owns every word: a rewrite
	// is all owned skips on both paths.
	serial.races, par.races = nil, nil
	serial.write(base, words, 6)
	par.write(base, words, 6)
	if len(serial.races) != 0 || len(par.races) != 0 {
		t.Fatalf("re-reported races after install: serial %d, par %d", len(serial.races), len(par.races))
	}
}

// TestTouchRangeParMatchesSerial pins the checksum of a page-misaligned
// range checked as concurrent chunks to a lone checker's.
func TestTouchRangeParMatchesSerial(t *testing.T) {
	serial := newEnv(seqRel())
	par := newParEnv(Ctx{}, 4, 1)
	base := uint64(3*pageSize - 19)
	const words = 5*pageSize + 77
	serial.batch(1, func(c *Checker) { c.TouchRange(base, words) })
	par.run((*Checker).TouchRange, base, words, 1)
	if serial.h.touched != par.h.touched {
		t.Fatalf("parallel Touch checksum %d != serial %d", par.h.touched, serial.h.touched)
	}
	if par.h.Stats().TouchedPages != 0 {
		t.Fatal("TouchRange materialized pages")
	}
}

// TestParallelChunkBoundaries sweeps range lengths around the page (and
// so chunk) boundary so off-by-ones in the chunk cut surface.
func TestParallelChunkBoundaries(t *testing.T) {
	rel := func(u, v core.StrandID) bool { return false } // everything races
	for _, words := range []int{31, 32, 33, 47, 48, 49, 64, 16*3 - 1, 16 * 3, 16*3 + 1} {
		t.Run(fmt.Sprint(words), func(t *testing.T) {
			serial := newEnv(rel)
			par := newParEnv(Ctx{Reach: &relReach{rel: rel}}, 3, 1)
			base := uint64(pageSize) - 24 // straddle a page boundary
			serial.write(base, words, 1)
			serial.write(base, words, 2)
			par.write(base, words, 1)
			par.write(base, words, 2)
			if len(serial.races) != words {
				t.Fatalf("serial: %d races, want %d", len(serial.races), words)
			}
			if !reflect.DeepEqual(par.races, serial.races) {
				t.Fatalf("events diverge at words=%d", words)
			}
			if par.chunks != 4 {
				t.Fatalf("%d chunks, want 2 per range", par.chunks)
			}
		})
	}
}
