package shadow

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"futurerd/internal/core"
)

// relReach is a core.Reach stub whose Precedes answers come from an
// arbitrary deterministic relation. Only Precedes matters to the shadow
// layer; the construct methods are no-ops.
type relReach struct {
	rel     func(u, v core.StrandID) bool
	queries uint64
}

func (r *relReach) Init(core.FnID, core.StrandID) {}
func (r *relReach) Spawn(core.SpawnRec)           {}
func (r *relReach) CreateFut(core.CreateRec)      {}
func (r *relReach) Return(core.ReturnRec)         {}
func (r *relReach) SyncJoin(core.JoinRec)         {}
func (r *relReach) GetFut(core.GetRec)            {}
func (r *relReach) Name() string                  { return "rel" }
func (r *relReach) Stats() core.ReachStats        { return core.ReachStats{} }

func (r *relReach) Precedes(u, v core.StrandID) bool {
	r.queries++
	return r.rel(u, v)
}

// env drives one Checker the way the engine's inline pipeline does —
// every range call is one batch — and collects the race events each batch
// hands back.
type env struct {
	h     *History
	c     *Checker
	reach *relReach
	races []RaceEvent
}

// newEnv builds an env over a fresh serial History, with rel answering
// every Precedes query.
func newEnv(rel func(u, v core.StrandID) bool) *env {
	r := &relReach{rel: rel}
	h := NewHistory()
	return &env{h: h, c: NewChecker(h, r), reach: r}
}

// batch runs ops as one batch of strand s and collects its events.
func (e *env) batch(s core.StrandID, ops func(c *Checker)) {
	e.c.Begin(s)
	ops(e.c)
	e.races = append(e.races, e.c.Events()...)
	e.c.End()
}

func (e *env) read(addr uint64, words int, s core.StrandID) {
	e.batch(s, func(c *Checker) { c.ReadRange(addr, words) })
}

func (e *env) write(addr uint64, words int, s core.StrandID) {
	e.batch(s, func(c *Checker) { c.WriteRange(addr, words) })
}

// chunkEnv checks every range cut at page-aligned chunk boundaries: each
// chunk is its own batch, taken by the next of several checkers in turn
// over one History, and the chunks' events are collected in chunk
// (address) order.
type chunkEnv struct {
	h          *History
	cs         []*Checker
	chunkPages int
	chunks     int // chunks checked so far; also whose turn is next
	races      []RaceEvent
}

func newChunkEnv(reach core.Reach, checkers, chunkPages int) *chunkEnv {
	h := NewHistory()
	p := &chunkEnv{h: h, chunkPages: chunkPages}
	for i := 0; i < checkers; i++ {
		p.cs = append(p.cs, NewChecker(h, reach))
	}
	return p
}

// run checks op over [addr, addr+words) for strand s.
func (p *chunkEnv) run(op func(c *Checker, addr uint64, words int), addr uint64, words int, s core.StrandID) {
	for words > 0 {
		end := (addr>>PageBits + uint64(p.chunkPages)) << PageBits
		n := int(min(uint64(words), end-addr))
		c := p.cs[p.chunks%len(p.cs)]
		p.chunks++
		c.Begin(s)
		op(c, addr, n)
		p.races = append(p.races, c.Events()...)
		c.End()
		addr += uint64(n)
		words -= n
	}
}

func (p *chunkEnv) read(addr uint64, words int, s core.StrandID) {
	p.run((*Checker).ReadRange, addr, words, s)
}

func (p *chunkEnv) write(addr uint64, words int, s core.StrandID) {
	p.run((*Checker).WriteRange, addr, words, s)
}

func seqRel(before ...core.StrandID) func(u, v core.StrandID) bool {
	set := map[core.StrandID]bool{}
	for _, s := range before {
		set[s] = true
	}
	return func(u, v core.StrandID) bool { return set[u] }
}

func TestRangeCrossesPageBoundary(t *testing.T) {
	e := newEnv(seqRel())
	// A range straddling three pages: starts mid-page, covers a full page,
	// ends mid-page.
	base := uint64(pageSize - 100)
	n := pageSize + 200
	e.write(base, n, 1)
	if len(e.races) != 0 {
		t.Fatalf("writes to fresh words raced: %v", e.races[0])
	}
	if got := e.h.Stats().TouchedPages; got != 3 {
		t.Fatalf("TouchedPages = %d, want 3", got)
	}
	// A parallel strand reading the same span races on every word.
	e.read(base, n, 2)
	if len(e.races) != n {
		t.Fatalf("got %d races, want %d", len(e.races), n)
	}
	for i, ev := range e.races {
		if ev.Addr != base+uint64(i) || ev.Racer.Prev != 1 || !ev.Racer.PrevWrite || ev.Write {
			t.Fatalf("race %d = %+v, want read race with writer 1 at %#x", i, ev, base+uint64(i))
		}
	}
}

// TestParallelChunkBoundaries sweeps range lengths around the page (and
// so chunk) boundary: two parallel strands write a page-straddling range,
// once whole on a lone checker and once cut into one batch per page on
// checkers taking turns. The race streams must match, one race per word,
// so off-by-ones in the page cut surface.
func TestParallelChunkBoundaries(t *testing.T) {
	rel := func(u, v core.StrandID) bool { return false } // everything races
	for _, words := range []int{31, 32, 33, 47, 48, 49, 64, 16*3 - 1, 16 * 3, 16*3 + 1} {
		t.Run(fmt.Sprint(words), func(t *testing.T) {
			serial := newEnv(rel)
			chunked := newChunkEnv(&relReach{rel: rel}, 3, 1)
			base := uint64(pageSize) - 24 // straddle a page boundary
			serial.write(base, words, 1)
			serial.write(base, words, 2)
			chunked.write(base, words, 1)
			chunked.write(base, words, 2)
			if len(serial.races) != words {
				t.Fatalf("serial: %d races, want %d", len(serial.races), words)
			}
			if !reflect.DeepEqual(chunked.races, serial.races) {
				t.Fatalf("events diverge at words=%d", words)
			}
			if chunked.chunks != 4 {
				t.Fatalf("%d chunks, want 2 per range", chunked.chunks)
			}
		})
	}
}

func TestEmptyAndNegativeRanges(t *testing.T) {
	e := newEnv(seqRel())
	e.read(42, 0, 1)
	e.write(42, 0, 1)
	e.read(42, -5, 1)
	e.write(42, -5, 1)
	st := e.h.Stats()
	if st.Reads != 0 || st.Writes != 0 || st.TouchedPages != 0 || len(e.races) != 0 {
		t.Fatalf("empty ranges left traces: %+v, races %v", st, e.races)
	}
}

func TestBulkWriteFlushesReaderLists(t *testing.T) {
	e := newEnv(seqRel(2, 3))
	const n = 64
	e.read(100, n, 2)
	e.read(100, n, 3)
	// Strand 4 is ordered after both readers: race free, flushes them all.
	e.write(100, n, 4)
	if len(e.races) != 0 {
		t.Fatalf("ordered bulk write raced: %v", e.races[0])
	}
	if got := e.h.Stats().ReaderFlushes; got != n {
		t.Fatalf("ReaderFlushes = %d, want %d", got, n)
	}
	// A writer parallel with the flushed readers but ordered after 4 must
	// not race: the flush is what makes bulk rewrites O(1) queries.
	e.reach.rel = seqRel(4)
	e.write(100, n, 5)
	if len(e.races) != 0 {
		t.Fatalf("write after flush raced against stale readers: %v", e.races[0])
	}
}

func TestOwnedRewriteSkipsProtocol(t *testing.T) {
	e := newEnv(seqRel())
	const n = 256
	e.write(1, n, 7)
	first := e.h.Stats().OwnedSkips // fresh words are claimed on the fast path
	e.write(1, n, 7)
	e.read(1, n, 7)
	st := e.h.Stats()
	if st.OwnedSkips != first+2*n {
		t.Fatalf("OwnedSkips = %d, want %d", st.OwnedSkips, first+2*n)
	}
	if q := e.reach.queries; q != 0 {
		t.Fatalf("owned rewrites made %d reachability queries, want 0", q)
	}
	if len(e.races) != 0 {
		t.Fatalf("owned rewrite raced: %v", e.races[0])
	}
}

func TestVerdictMemoAcrossRun(t *testing.T) {
	e := newEnv(seqRel(1))
	const n = 512
	e.write(1, n, 1)
	// Strand 2 overwrites the whole run: every word has the same last
	// writer, so one Precedes call should serve the entire range.
	e.write(1, n, 2)
	if q := e.reach.queries; q != 1 {
		t.Fatalf("bulk overwrite made %d reachability queries, want 1 (memoized)", q)
	}
	if got := e.h.Stats().MemoHits; got != n-1 {
		t.Fatalf("MemoHits = %d, want %d", got, n-1)
	}
	// The next batch (a new strand) starts with a cold cache.
	e.write(1, 1, 3)
	if q := e.reach.queries; q != 2 {
		t.Fatalf("query count in the next batch = %d, want 2", q)
	}
}

func TestPageCacheHitsOnSequentialScan(t *testing.T) {
	e := newEnv(seqRel())
	for i := 0; i < pageSize; i++ {
		e.write(uint64(i), 1, 1)
	}
	st := e.h.Stats()
	if st.PageCacheHits != pageSize-1 {
		t.Fatalf("PageCacheHits = %d, want %d", st.PageCacheHits, pageSize-1)
	}
	if st.TouchedPages != 1 {
		t.Fatalf("TouchedPages = %d, want 1", st.TouchedPages)
	}
}

func TestSpilledReadersCheckedAndFlushed(t *testing.T) {
	e := newEnv(seqRel(2, 3))
	// Three distinct readers: the third spills out of the inline slot.
	e.read(9, 1, 2)
	e.read(9, 1, 3)
	e.read(9, 1, 4)
	// Strand 5 is ordered after 2 and 3 but parallel with spilled reader 4.
	e.write(9, 1, 5)
	if len(e.races) != 1 || e.races[0].Racer.Prev != 4 || e.races[0].Racer.PrevWrite {
		t.Fatalf("want write race with spilled reader 4, got %v", e.races)
	}
}

// TestTouchRangeMatchesTouch pins the bulk checksum to the per-word one
// and checks that decoding materializes no page.
func TestTouchRangeMatchesTouch(t *testing.T) {
	bulk, words := newEnv(seqRel()), newEnv(seqRel())
	base := uint64(pageSize - 3)
	bulk.batch(1, func(c *Checker) { c.TouchRange(base, 7) })
	words.batch(1, func(c *Checker) {
		for i := 0; i < 7; i++ {
			c.TouchRange(base+uint64(i), 1)
		}
	})
	if bulk.h.touched != words.h.touched || bulk.h.touched == 0 {
		t.Fatalf("TouchRange checksum %d != per-word checksum %d", bulk.h.touched, words.h.touched)
	}
	if bulk.h.Stats().TouchedPages != 0 || words.h.Stats().TouchedPages != 0 {
		t.Fatal("TouchRange materialized pages")
	}
}

// FuzzRangeMatchesReference is the differential proof obligation for the
// checker: an arbitrary access sequence driven through Checker range ops
// must produce exactly the race events — same order, same addresses, same
// racers — as the word-at-a-time reference protocol (Read/Write) under the
// same reachability relation, and must leave equivalent reader/writer
// state behind (probed by the shared trailing writes). The checker runs in
// three shapes:
//
//   - serial: one checker over a serial History, each batch spanning a
//     strand's whole run of ops (the inline pipeline's shape);
//   - turns: two checkers taking turns over one History, one batch per
//     op, so every op starts with cold per-batch caches;
//   - words: each op split into one-word calls inside one batch (the
//     words == 1 shortcut).
//
// Run continuously with
//
//	go test -fuzz FuzzRangeMatchesReference ./internal/shadow
func FuzzRangeMatchesReference(f *testing.F) {
	f.Add(uint64(0), uint64(1))
	f.Add(uint64(1), uint64(99))
	f.Add(uint64(0xdeadbeef), uint64(7))
	// Within one serial batch, a write frees a slot whose list records
	// the batch's strand, and a later read inflates into the recycled
	// slot.
	f.Add(uint64(22), uint64(7))
	// A spread seed: pages PageSetSlots apart evict each other from the
	// checker's page-set cache.
	f.Add(uint64(3), uint64(22))
	// A repeat seed: strands re-issue their recent ranges, so the serial
	// checker's range memo hits and drops.
	f.Add(uint64(12), uint64(5))
	f.Fuzz(func(t *testing.T, seed, relSeed uint64) { differentialRun(t, seed, relSeed) })
}

// TestRangeMatchesReferenceSeeds runs the differential body over a seed
// sweep so plain `go test` covers many interleavings, and checks that the
// sweep reaches the machinery it exists to cover: lists of three or more
// readers, slots recycled through the free list, page-set evictions, and
// the serial checker's range memo answering repeat reads from read and
// write entries, repeat writes, and dropping a read entry on a write.
func TestRangeMatchesReferenceSeeds(t *testing.T) {
	var longest int
	var recycled, evicted bool
	var memo rangeCoverage
	for seed := uint64(0); seed < 50; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			cov := differentialRun(t, seed, seed*7+1)
			longest = max(longest, cov.longestList)
			recycled = recycled || cov.recycled
			evicted = evicted || cov.evicted
			memo.readHits += cov.memo.readHits
			memo.writeEntryReads += cov.memo.writeEntryReads
			memo.writeHits += cov.memo.writeHits
			memo.drops += cov.memo.drops
		})
	}
	if longest < 3 || !recycled {
		t.Fatalf("sweep missed the inflated lists: longest list %d, slots recycled %v", longest, recycled)
	}
	if !evicted {
		t.Fatal("sweep never touched two pages that share a page-set slot")
	}
	t.Logf("range memo over the sweep: %+v", memo)
	if memo.readHits == 0 || memo.writeEntryReads == 0 || memo.writeHits == 0 || memo.drops == 0 {
		t.Fatalf("sweep missed the range memo: %+v", memo)
	}
}

// spillCoverage reports what one differential run did to the spill slab,
// the page-set cache and the serial checker's range memo.
type spillCoverage struct {
	longestList int  // most readers seen in one inflated list
	recycled    bool // some inflation reused a freed slot
	evicted     bool // two touched pages share a page-set slot
	memo        rangeCoverage
}

// rangeCoverage counts the serial checker's range-memo events.
type rangeCoverage struct {
	readHits        int // repeat reads answered by a read entry
	writeEntryReads int // repeat reads answered by a write entry
	writeHits       int // repeat writes answered by a write entry
	drops           int // read entries a write dropped
}

// observe classifies one op of the serial checker c by the range memo's
// state before it (m) and after it.
func (cov *rangeCoverage) observe(m *rangeMemo, c *Checker, addr uint64, words int, write bool) {
	if words >= minRangeWords {
		switch _, read, wr := m.lookup(rangeSlot(addr), addr, words); {
		case write && wr:
			cov.writeHits++
		case !write && wr:
			cov.writeEntryReads++
		case !write && read:
			cov.readHits++
		}
	}
	if !write {
		return
	}
	end := addr + uint64(words)
	for gone := m.reads &^ c.ranges.reads; gone != 0; gone &= gone - 1 {
		e := m.e[bits.TrailingZeros64(gone)]
		if e.addr < end && addr < e.addr+uint64(e.words) {
			cov.drops++
		}
	}
}

func differentialRun(t *testing.T, seed, relSeed uint64) spillCoverage {
	rng := seed
	next := func(n uint64) uint64 { // xorshift, deterministic per seed
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	// A fixed arbitrary relation: the protocol equivalence must hold
	// for any deterministic Precedes answers, so we do not bother
	// making it a partial order. Its density varies with relSeed, so
	// some runs race early and others walk long reader lists.
	density := 2 + relSeed%6
	rel := func(u, v core.StrandID) bool {
		x := (uint64(u)*2654435761 + uint64(v)*40503) ^ relSeed
		x ^= x >> 13
		return x&7 < density
	}
	// Odd seeds draw from more strands than the verdict cache has
	// slots, so cached verdicts collide and evict.
	strands := uint64(6)
	if seed%2 == 1 {
		strands = 3 * verdictSlots
	}
	// Seeds 3 mod 5 spread their accesses over three page boundaries
	// PageSetSlots pages apart, so the pages on either side of them share
	// page-set slots and evict each other. Only those seeds draw the
	// extra offset, and of the corpus above and under testdata only
	// the spread entry (3, 22) is one, so the older entries' address
	// streams stay as recorded.
	spread := seed%5 == 3
	// Seeds 5 mod 7 keep a strand across ops more often and re-issue one
	// of its recent ranges, or one word inside it, on about half of its
	// ops: the access pattern the range memo serves. No corpus entry
	// above or under testdata falls in this class, so their streams stay
	// as recorded.
	repeat := seed%7 == 5
	type span struct {
		addr  uint64
		words int
	}
	var recent []span
	reach := &relReach{rel: rel}
	ref := NewHistory()
	serialH := NewHistory()
	serial := NewChecker(serialH, reach)
	turnsH := NewHistory()
	turns := [2]*Checker{NewChecker(turnsH, reach), NewChecker(turnsH, reach)}
	wordsH := NewHistory()
	words1 := NewChecker(wordsH, reach)

	var refRaces, serialDone, turnRaces, wordRaces []RaceEvent
	serialRaces := func() []RaceEvent {
		return append(serialDone[:len(serialDone):len(serialDone)], serial.Events()...)
	}
	check := func(op int, name string, got []RaceEvent) {
		if len(got) != len(refRaces) {
			t.Fatalf("op %d: %s checker reported %d races, reference %d\n%s: %v\nref: %v",
				op, name, len(got), len(refRaces), name, got, refRaces)
		}
	}
	var cov spillCoverage
	s, batchStrand := core.StrandID(1), core.NoStrand
	for op := 0; op < 300; op++ {
		// Otherwise the previous op's strand continues.
		if keep := repeat && next(4) != 0; !keep && next(3) != 0 {
			s = core.StrandID(next(strands) + 1)
			recent = recent[:0]
		}
		// Addresses cluster near a page boundary so ranges regularly
		// straddle it.
		addr := uint64(pageSize) - 16 + next(32)
		if spread {
			addr += next(3) * PageSetSlots * pageSize
		}
		words := int(next(20)) + 1
		switch next(8) {
		case 0:
			words = 0 // exercise the empty-range path
		case 1:
			// A long range: runs of equal words outlast the verdict cache
			// and cross the page boundary.
			words = int(next(300)) + 1
		}
		if repeat {
			if len(recent) > 0 && next(2) == 0 {
				r := recent[next(uint64(len(recent)))]
				addr, words = r.addr, r.words
				if words > 0 && next(3) == 0 {
					// One word inside it: a one-word write there must
					// drop the range's read entry.
					addr, words = addr+next(uint64(words)), 1
				}
			} else if recent = append(recent, span{addr, words}); len(recent) > 4 {
				recent = recent[1:]
			}
		}
		// A read-only opening phase grows long reader lists on fresh
		// words; afterwards writes deflate them and reads re-inflate.
		isWrite := op >= 60 && next(2) == 0
		do := func(c *Checker, addr uint64, words int) {
			if isWrite {
				c.WriteRange(addr, words)
			} else {
				c.ReadRange(addr, words)
			}
		}

		if s != batchStrand {
			serialDone = append(serialDone, serial.Events()...)
			serial.End()
			serial.Begin(s)
			batchStrand = s
		}
		memo := serial.ranges
		do(serial, addr, words)
		cov.memo.observe(&memo, serial, addr, words, isWrite)

		c := turns[op%2]
		c.Begin(s)
		do(c, addr, words)
		turnRaces = append(turnRaces, c.Events()...)
		c.End()

		words1.Begin(s)
		for i := 0; i < words; i++ {
			do(words1, addr+uint64(i), 1)
		}
		wordRaces = append(wordRaces, words1.Events()...)
		words1.End()

		precedes := func(u core.StrandID) bool { return rel(u, s) }
		for i := 0; i < words; i++ {
			a := addr + uint64(i)
			if isWrite {
				if r, raced := ref.Write(a, s, precedes); raced {
					refRaces = append(refRaces, RaceEvent{Addr: a, Racer: r, Write: true})
				}
			} else {
				if r, raced := ref.Read(a, s, precedes); raced {
					refRaces = append(refRaces, RaceEvent{Addr: a, Racer: r})
				}
			}
		}
		check(op, "serial", serialRaces())
		check(op, "turns", turnRaces)
		check(op, "one-word", wordRaces)
		for i := uint32(0); i < serialH.spill.next; i++ {
			cov.longestList = max(cov.longestList, len(*serialH.spill.list(i)))
		}
	}
	serialDone = append(serialDone, serial.Events()...)
	serial.End()
	for _, p := range []struct {
		name   string
		events []RaceEvent
	}{{"serial", serialDone}, {"turns", turnRaces}, {"one-word", wordRaces}} {
		if !reflect.DeepEqual(p.events, refRaces) {
			t.Fatalf("%s race stream diverged\n%s: %v\nref: %v", p.name, p.name, p.events, refRaces)
		}
	}
	// The histories must also agree on traffic the protocol defines
	// exactly (reads/writes observed). The checker skips owned words
	// the reference still appends, so its reader-list state machine and
	// its skip counters are compared among the checker shapes: a skip is
	// decided by the word's state alone, so the serial shape's range memo
	// must count exactly the skips the turns and one-word shapes find
	// word by word.
	rs, fs := ref.Stats(), serialH.Stats()
	if fs.Reads != rs.Reads || fs.Writes != rs.Writes {
		t.Fatalf("traffic diverged: serial %+v ref %+v", fs, rs)
	}
	for _, p := range []struct {
		name string
		st   Stats
	}{{"turns", turnsH.Stats()}, {"one-word", wordsH.Stats()}} {
		st := p.st
		if st.Reads != fs.Reads || st.Writes != fs.Writes || st.ReaderAppends != fs.ReaderAppends ||
			st.ReaderFlushes != fs.ReaderFlushes || st.EpochInflations != fs.EpochInflations ||
			st.EpochDeflations != fs.EpochDeflations || st.SpillEntries != fs.SpillEntries ||
			st.OwnedSkips != fs.OwnedSkips || st.ReadSharedSkips != fs.ReadSharedSkips {
			t.Fatalf("%s traffic diverged:\n%s %+v\nserial %+v", p.name, p.name, st, fs)
		}
	}
	// The one-word shape never shares a slot, so it hands out fewer slots
	// than it inflates words only by recycling them.
	cov.recycled = uint64(wordsH.spill.next) < fs.EpochInflations
	cov.evicted = sharesSlot(serialH)
	return cov
}

// sharesSlot reports whether two pages of h fall in one page-set slot,
// so a checker that looked both up evicted one for the other.
func sharesSlot(h *History) bool {
	var seen [PageSetSlots]bool
	for di, d := range h.dirs {
		for i, p := range d {
			if p == nil {
				continue
			}
			slot := (uint64(di)<<dirBits | uint64(i)) & (PageSetSlots - 1)
			if seen[slot] {
				return true
			}
			seen[slot] = true
		}
	}
	return false
}
