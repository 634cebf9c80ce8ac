package shadow

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"futurerd/internal/core"
)

// relReach is a core.Reach stub whose Precedes answers come from an
// arbitrary deterministic relation. Only Precedes matters to the shadow
// layer; the construct methods are no-ops. The query counter is atomic so
// the stub can serve the parallel range path too.
type relReach struct {
	rel     func(u, v core.StrandID) bool
	queries atomic.Uint64
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
	r.queries.Add(1)
	return r.rel(u, v)
}

// raceEvent is one reported race, tagged with the access kind.
type raceEvent struct {
	Addr  uint64
	Racer Racer
	Write bool
}

// ctxFor builds a Ctx over rel that appends every reported race to sink.
func ctxFor(rel func(u, v core.StrandID) bool, sink *[]raceEvent) *Ctx {
	ctx := &Ctx{Reach: &relReach{rel: rel}}
	ctx.OnReadRace = func(addr uint64, r Racer, _ core.StrandID) {
		*sink = append(*sink, raceEvent{Addr: addr, Racer: r})
	}
	ctx.OnWriteRace = func(addr uint64, r Racer, _ core.StrandID) {
		*sink = append(*sink, raceEvent{Addr: addr, Racer: r, Write: true})
	}
	return ctx
}

func seqRel(before ...core.StrandID) func(u, v core.StrandID) bool {
	set := map[core.StrandID]bool{}
	for _, s := range before {
		set[s] = true
	}
	return func(u, v core.StrandID) bool { return set[u] }
}

func TestRangeCrossesPageBoundary(t *testing.T) {
	h := NewHistory()
	var races []raceEvent
	ctx := ctxFor(seqRel(), &races)
	// A range straddling three pages: starts mid-page, covers a full page,
	// ends mid-page.
	base := uint64(pageSize - 100)
	n := pageSize + 200
	h.WriteRange(base, n, 1, ctx)
	if len(races) != 0 {
		t.Fatalf("writes to fresh words raced: %v", races[0])
	}
	if got := h.Stats().TouchedPages; got != 3 {
		t.Fatalf("TouchedPages = %d, want 3", got)
	}
	// A parallel strand reading the same span races on every word.
	h.ReadRange(base, n, 2, ctx)
	if len(races) != n {
		t.Fatalf("got %d races, want %d", len(races), n)
	}
	for i, ev := range races {
		if ev.Addr != base+uint64(i) || ev.Racer.Prev != 1 || !ev.Racer.PrevWrite || ev.Write {
			t.Fatalf("race %d = %+v, want read race with writer 1 at %#x", i, ev, base+uint64(i))
		}
	}
}

func TestEmptyAndNegativeRanges(t *testing.T) {
	h := NewHistory()
	var races []raceEvent
	ctx := ctxFor(seqRel(), &races)
	h.ReadRange(42, 0, 1, ctx)
	h.WriteRange(42, 0, 1, ctx)
	h.ReadRange(42, -5, 1, ctx)
	h.WriteRange(42, -5, 1, ctx)
	st := h.Stats()
	if st.Reads != 0 || st.Writes != 0 || st.TouchedPages != 0 || len(races) != 0 {
		t.Fatalf("empty ranges left traces: %+v, races %v", st, races)
	}
}

func TestBulkWriteFlushesReaderLists(t *testing.T) {
	h := NewHistory()
	var races []raceEvent
	ctx := ctxFor(seqRel(2, 3), &races)
	const n = 64
	h.ReadRange(100, n, 2, ctx)
	h.ReadRange(100, n, 3, ctx)
	// Strand 4 is ordered after both readers: race free, flushes them all.
	h.WriteRange(100, n, 4, ctx)
	if len(races) != 0 {
		t.Fatalf("ordered bulk write raced: %v", races[0])
	}
	if got := h.Stats().ReaderFlushes; got != n {
		t.Fatalf("ReaderFlushes = %d, want %d", got, n)
	}
	// A writer parallel with the flushed readers but ordered after 4 must
	// not race: the flush is what makes bulk rewrites O(1) queries.
	ctx2Races := []raceEvent{}
	ctx2 := ctxFor(seqRel(4), &ctx2Races)
	h.WriteRange(100, n, 5, ctx2)
	if len(ctx2Races) != 0 {
		t.Fatalf("write after flush raced against stale readers: %v", ctx2Races[0])
	}
}

func TestOwnedRewriteSkipsProtocol(t *testing.T) {
	h := NewHistory()
	var races []raceEvent
	ctx := ctxFor(seqRel(), &races)
	const n = 256
	h.WriteRange(1, n, 7, ctx)
	first := h.Stats().OwnedSkips // fresh words are claimed on the fast path
	h.WriteRange(1, n, 7, ctx)
	h.ReadRange(1, n, 7, ctx)
	st := h.Stats()
	if st.OwnedSkips != first+2*n {
		t.Fatalf("OwnedSkips = %d, want %d", st.OwnedSkips, first+2*n)
	}
	if q := ctx.Reach.(*relReach).queries.Load(); q != 0 {
		t.Fatalf("owned rewrites made %d reachability queries, want 0", q)
	}
	if len(races) != 0 {
		t.Fatalf("owned rewrite raced: %v", races[0])
	}
}

func TestVerdictMemoAcrossRun(t *testing.T) {
	h := NewHistory()
	var races []raceEvent
	ctx := ctxFor(seqRel(1), &races)
	const n = 512
	h.WriteRange(1, n, 1, ctx)
	// Strand 2 overwrites the whole run: every word has the same last
	// writer, so one Precedes call should serve the entire range.
	h.WriteRange(1, n, 2, ctx)
	if q := ctx.Reach.(*relReach).queries.Load(); q != 1 {
		t.Fatalf("bulk overwrite made %d reachability queries, want 1 (memoized)", q)
	}
	if got := h.Stats().MemoHits; got != n-1 {
		t.Fatalf("MemoHits = %d, want %d", got, n-1)
	}
	// Bumping the generation invalidates the memo.
	ctx.Gen++
	h.WriteRange(1, 1, 3, ctx)
	if q := ctx.Reach.(*relReach).queries.Load(); q != 2 {
		t.Fatalf("query count after gen bump = %d, want 2", q)
	}
}

func TestPageCacheHitsOnSequentialScan(t *testing.T) {
	h := NewHistory()
	var races []raceEvent
	ctx := ctxFor(seqRel(), &races)
	for i := 0; i < pageSize; i++ {
		h.WriteRange(uint64(i), 1, 1, ctx)
	}
	st := h.Stats()
	if st.PageCacheHits != pageSize-1 {
		t.Fatalf("PageCacheHits = %d, want %d", st.PageCacheHits, pageSize-1)
	}
	if st.TouchedPages != 1 {
		t.Fatalf("TouchedPages = %d, want 1", st.TouchedPages)
	}
}

func TestSpilledReadersCheckedAndFlushed(t *testing.T) {
	h := NewHistory()
	var races []raceEvent
	ctx := ctxFor(seqRel(2, 3), &races)
	// Three distinct readers: the third spills out of the inline slot.
	h.ReadRange(9, 1, 2, ctx)
	h.ReadRange(9, 1, 3, ctx)
	h.ReadRange(9, 1, 4, ctx)
	// Strand 5 is ordered after 2 and 3 but parallel with spilled reader 4.
	h.WriteRange(9, 1, 5, ctx)
	if len(races) != 1 || races[0].Racer.Prev != 4 || races[0].Racer.PrevWrite {
		t.Fatalf("want write race with spilled reader 4, got %v", races)
	}
}

// TestTouchRangeMatchesTouch pins the bulk checksum to the per-word one.
func TestTouchRangeMatchesTouch(t *testing.T) {
	h1, h2 := NewHistory(), NewHistory()
	base := uint64(pageSize - 3)
	for i := 0; i < 7; i++ {
		h1.Touch(base + uint64(i))
	}
	h2.TouchRange(base, 7)
	if h1.touched != h2.touched {
		t.Fatalf("TouchRange checksum %d != Touch checksum %d", h2.touched, h1.touched)
	}
	if h1.Stats().TouchedPages != 0 || h2.Stats().TouchedPages != 0 {
		t.Fatal("Touch materialized pages")
	}
}

// FuzzRangeMatchesReference is the differential proof obligation for the
// fast paths: an arbitrary access sequence driven through the bulk range
// operations must produce exactly the race events — same order, same
// addresses, same racers — as the word-at-a-time reference protocol
// (Read/Write) under the same reachability relation, and must leave
// equivalent reader/writer state behind (probed by the shared trailing
// writes). Run continuously with
//
//	go test -fuzz FuzzRangeMatchesReference ./internal/shadow
func FuzzRangeMatchesReference(f *testing.F) {
	f.Add(uint64(0), uint64(1))
	f.Add(uint64(1), uint64(99))
	f.Add(uint64(0xdeadbeef), uint64(7))
	f.Fuzz(func(t *testing.T, seed, relSeed uint64) { differentialRun(t, seed, relSeed) })
}

// TestRangeMatchesReferenceSeeds runs the differential body over a seed
// sweep so plain `go test` covers many interleavings, and checks that the
// sweep reaches the inflated-list machinery it exists to cover: lists of
// three or more readers, and slots recycled through the free list.
func TestRangeMatchesReferenceSeeds(t *testing.T) {
	var longest int
	var recycled bool
	for seed := uint64(0); seed < 50; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			cov := differentialRun(t, seed, seed*7+1)
			longest = max(longest, cov.longestList)
			recycled = recycled || cov.recycled
		})
	}
	if longest < 3 || !recycled {
		t.Fatalf("sweep missed the inflated lists: longest list %d, slots recycled %v", longest, recycled)
	}
}

// spillCoverage reports what one differential run did to the spill slab.
type spillCoverage struct {
	longestList int  // most readers seen in one inflated list
	recycled    bool // some inflation reused a freed slot
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
	fast := NewHistory()
	ref := NewHistory()
	// par is driven through the parallel range path with a tiny chunk so
	// even these short ranges fan out across real worker goroutines; it
	// must produce the identical event stream.
	par := NewHistory()
	pool := NewPool(4, 4)
	defer pool.Close()
	// view is driven through a consumer View, one batch per op, fanning
	// out across the pool on odd ops.
	vh := NewHistory()
	view := NewView(vh, 0)
	var fastRaces, refRaces, parRaces, viewRaces []raceEvent
	ctx := ctxFor(rel, &fastRaces)
	pctx := ctxFor(rel, &parRaces)
	vctx := &Ctx{Reach: &relReach{rel: rel}}
	wantFanout := false
	var cov spillCoverage
	s := core.StrandID(1)
	for op := 0; op < 300; op++ {
		if next(3) != 0 { // otherwise the previous op's strand continues
			s = core.StrandID(next(strands) + 1)
		}
		// Addresses cluster near a page boundary so ranges regularly
		// straddle it.
		addr := uint64(pageSize) - 16 + next(32)
		words := int(next(20)) + 1
		if next(8) == 0 {
			words = 0 // exercise the empty-range path
		}
		// A read-only opening phase grows long reader lists on fresh
		// words; afterwards writes deflate them and reads re-inflate.
		isWrite := op >= 60 && next(2) == 0
		if words >= 8 { // 2 × the pool's 4-word chunk
			wantFanout = true
		}
		vp := pool
		if op%2 == 0 {
			vp = nil
		}
		view.Begin(vctx, s)
		if isWrite {
			fast.WriteRange(addr, words, s, ctx)
			par.WriteRangePar(addr, words, s, pctx, pool)
			view.WriteRange(addr, words, vp)
		} else {
			fast.ReadRange(addr, words, s, ctx)
			par.ReadRangePar(addr, words, s, pctx, pool)
			view.ReadRange(addr, words, vp)
		}
		for _, ev := range view.Events() {
			viewRaces = append(viewRaces, raceEvent{Addr: ev.Addr, Racer: ev.Racer, Write: ev.Write})
		}
		view.End()
		precedes := func(u core.StrandID) bool { return rel(u, s) }
		for i := 0; i < words; i++ {
			a := addr + uint64(i)
			if isWrite {
				if r, raced := ref.Write(a, s, precedes); raced {
					refRaces = append(refRaces, raceEvent{Addr: a, Racer: r, Write: true})
				}
			} else {
				if r, raced := ref.Read(a, s, precedes); raced {
					refRaces = append(refRaces, raceEvent{Addr: a, Racer: r})
				}
			}
		}
		if len(fastRaces) != len(refRaces) {
			t.Fatalf("op %d: fast path reported %d races, reference %d\nfast: %v\nref:  %v",
				op, len(fastRaces), len(refRaces), fastRaces, refRaces)
		}
		if len(parRaces) != len(refRaces) {
			t.Fatalf("op %d: parallel path reported %d races, reference %d\npar: %v\nref: %v",
				op, len(parRaces), len(refRaces), parRaces, refRaces)
		}
		if len(viewRaces) != len(refRaces) {
			t.Fatalf("op %d: view reported %d races, reference %d\nview: %v\nref:  %v",
				op, len(viewRaces), len(refRaces), viewRaces, refRaces)
		}
		for i := uint32(0); i < fast.spill.next; i++ {
			cov.longestList = max(cov.longestList, len(*fast.spill.list(i)))
		}
	}
	if !reflect.DeepEqual(fastRaces, refRaces) {
		t.Fatalf("race streams diverged\nfast: %v\nref:  %v", fastRaces, refRaces)
	}
	if !reflect.DeepEqual(parRaces, refRaces) {
		t.Fatalf("parallel race stream diverged\npar: %v\nref: %v", parRaces, refRaces)
	}
	if !reflect.DeepEqual(viewRaces, refRaces) {
		t.Fatalf("view race stream diverged\nview: %v\nref:  %v", viewRaces, refRaces)
	}
	// The histories must also agree on traffic the protocol defines
	// exactly (reads/writes observed). The fast checkers skip owned and
	// stamped words the reference still appends, so their reader-list
	// state machine is compared among themselves.
	rs, fs := ref.Stats(), fast.Stats()
	if fs.Reads != rs.Reads || fs.Writes != rs.Writes {
		t.Fatalf("traffic diverged: fast %+v ref %+v", fs, rs)
	}
	for _, p := range []struct {
		name string
		st   Stats
	}{{"parallel", par.Stats()}, {"view", vh.Stats()}} {
		st := p.st
		if st.Reads != fs.Reads || st.Writes != fs.Writes || st.ReaderAppends != fs.ReaderAppends ||
			st.ReaderFlushes != fs.ReaderFlushes || st.EpochInflations != fs.EpochInflations ||
			st.EpochDeflations != fs.EpochDeflations || st.SpillEntries != fs.SpillEntries {
			t.Fatalf("%s traffic diverged:\n%s %+v\nfast %+v", p.name, p.name, st, fs)
		}
	}
	if wantFanout && par.Stats().ParRanges == 0 {
		t.Fatal("parallel path never fanned out despite fan-out-sized ranges")
	}
	cov.recycled = uint64(fast.spill.next) < fast.Stats().EpochInflations
	return cov
}
