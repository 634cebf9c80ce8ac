package detect

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"futurerd/internal/event"
)

// These tests pin the multi-consumer detection back-end: independent
// batches (disjoint page footprints, distinct strands, no conflicting
// construct mutation between them) are checked concurrently by a
// dependency-scheduled consumer pool under a pinned relation snapshot,
// while dependent batches serialize in seal order — with reports that
// stay verdict-, order- and counter-identical to a serial run.

// consumersProg mixes every scheduling regime: a wide fan-out of leaf
// tasks over disjoint pages (independent windows), children sharing racy
// pages (dependent, ordered race delivery), a future raced against its
// creator, owned-word re-reads and repeated read-shared passes.
func consumersProg(tk *Task) {
	tk.WriteRange(1<<20, 300) // shared region, written before the fan-out
	for i := 0; i < 8; i++ {
		base := uint64(1 + i*4*4096) // four pages apart: disjoint footprints
		tk.Spawn(func(c *Task) {
			c.WriteRange(base, 900)
			c.ReadRange(base, 900) // own writes: owned skips
			if i%2 == 1 {
				// Odd children also touch the shared region: page overlap
				// makes these batches dependent, and the re-writes race
				// against the parent's pre-fan-out writes.
				c.WriteRange(1<<20, 150)
			}
		})
	}
	tk.Sync()
	h := tk.CreateFut(func(ft *Task) any {
		ft.ReadRange(1<<20, 300) // ordered after the sync: race free
		ft.WriteRange(1<<21, 200)
		return nil
	})
	tk.ReadRange(1<<21, 200) // parallel with the future: races
	tk.GetFut(h)
	tk.Spawn(func(c *Task) {
		c.ReadRange(1<<21, 200) // ordered after the get via the parent
		c.ReadRange(1<<21, 200) // second pass: read-shared skips
	})
	tk.Sync()
}

// TestConsumersEquivalence is the acceptance check: across all three
// algorithms × Consumers ∈ {0,1,2,4}, the race stream (content and
// order), the violations and the full Stats — shadow protocol traffic,
// both epoch fast paths, memo hits, reachability queries, batch-pipeline
// counters — must deep-equal the serial run. Only the per-checker
// page-cache locality and the scheduler's timing-dependent outcome
// counters (stolen chunks, overlapped windows) may differ.
func TestConsumersEquivalence(t *testing.T) {
	for _, mode := range []Mode{ModeSPBags, ModeMultiBags, ModeMultiBagsPlus} {
		serial := NewEngine(Config{Mode: mode, Mem: MemFull, MaxRaces: 1 << 20}).Run(consumersProg)
		if serial.Err != nil {
			t.Fatalf("%v: %v", mode, serial.Err)
		}
		if !serial.Racy() {
			t.Fatalf("%v: program raced nowhere; the test needs races to order", mode)
		}
		if serial.Stats.Event.IndependentBatches == 0 {
			t.Fatalf("%v: no independent batches; the test needs concurrent windows", mode)
		}
		for _, consumers := range []int{0, 1, 2, 4} {
			cfg := Config{
				Mode: mode, Mem: MemFull, MaxRaces: 1 << 20,
				Consumers: consumers,
			}
			rep := NewEngine(cfg).Run(consumersProg)
			if rep.Err != nil {
				t.Fatalf("%v c=%d: %v", mode, consumers, rep.Err)
			}
			if !reflect.DeepEqual(serial.Races, rep.Races) {
				t.Fatalf("%v c=%d: race streams diverge\nserial %v\ngot    %v",
					mode, consumers, serial.Races, rep.Races)
			}
			if !reflect.DeepEqual(serial.Violations, rep.Violations) {
				t.Fatalf("%v c=%d: violations diverge", mode, consumers)
			}
			ss, as := serial.Stats, rep.Stats
			ss.Shadow.PageCacheHits, as.Shadow.PageCacheHits = 0, 0
			ss.Event.StolenChunks, ss.Event.OverlappedWindows = 0, 0
			as.Event.StolenChunks, as.Event.OverlappedWindows = 0, 0
			if !reflect.DeepEqual(ss, as) {
				t.Fatalf("%v c=%d: stats diverge\nserial %+v\ngot    %+v",
					mode, consumers, ss, as)
			}
		}
	}
}

// epochProg exercises the carried-forward read epoch under the consumer
// pool: four children install disjoint writer blocks over one shared
// range, then the parent re-scans the whole range with a real spawn+sync
// between scans — every scan runs in a new construct generation on a new
// strand of the same function, so only the cross-generation stamp
// transfer keeps the re-scans query-free. A future raced against its
// creator keeps the race stream non-empty so delivery order is pinned.
func epochProg(tk *Task) {
	for i := 0; i < 4; i++ {
		base := uint64(1 + i*1024)
		tk.Spawn(func(c *Task) { c.WriteRange(base, 1024) })
	}
	tk.Sync()
	for pass := 0; pass < 3; pass++ {
		tk.Spawn(func(c *Task) {})
		tk.Sync() // a folding construct: the next scan is a new generation
		tk.ReadRange(1, 4096)
	}
	h := tk.CreateFut(func(ft *Task) any {
		ft.WriteRange(1<<21, 64)
		return nil
	})
	tk.ReadRange(1<<21, 64) // parallel with the future: races
	tk.GetFut(h)
}

// TestEpochConsumersEquivalence pins the epoch counters and the stamp
// transfer across the consumer pool: for every algorithm × Consumers ∈
// {0,1,2,4}, the full Stats — including EpochHits,
// EpochInflations, EpochDeflations and SpillEntries — must deep-equal
// the serial run, and the serial run must actually take cross-generation
// transfers. For the verifying algorithms, a Verify run (whose wrapped
// relation drops the EpochConcurrent capability, so the reference
// protocol runs epoch-free under oracle audit) must report the identical
// race stream.
func TestEpochConsumersEquivalence(t *testing.T) {
	for _, mode := range []Mode{ModeSPBags, ModeMultiBags, ModeMultiBagsPlus} {
		serial := NewEngine(Config{Mode: mode, Mem: MemFull, MaxRaces: 1 << 20}).Run(epochProg)
		if serial.Err != nil {
			t.Fatalf("%v: %v", mode, serial.Err)
		}
		if !serial.Racy() {
			t.Fatalf("%v: program raced nowhere; the test needs races to order", mode)
		}
		if serial.Stats.Shadow.EpochHits == 0 {
			t.Fatalf("%v: no cross-generation stamp transfers; the test exercises nothing", mode)
		}
		for _, consumers := range []int{0, 1, 2, 4} {
			rep := NewEngine(Config{
				Mode: mode, Mem: MemFull, MaxRaces: 1 << 20,
				Consumers: consumers,
			}).Run(epochProg)
			if rep.Err != nil {
				t.Fatalf("%v c=%d: %v", mode, consumers, rep.Err)
			}
			if !reflect.DeepEqual(serial.Races, rep.Races) {
				t.Fatalf("%v c=%d: race streams diverge\nserial %v\ngot    %v",
					mode, consumers, serial.Races, rep.Races)
			}
			ss, as := serial.Stats, rep.Stats
			ss.Shadow.PageCacheHits, as.Shadow.PageCacheHits = 0, 0
			ss.Event.StolenChunks, ss.Event.OverlappedWindows = 0, 0
			as.Event.StolenChunks, as.Event.OverlappedWindows = 0, 0
			if !reflect.DeepEqual(ss, as) {
				t.Fatalf("%v c=%d: stats diverge\nserial %+v\ngot    %+v",
					mode, consumers, ss, as)
			}
		}
		if mode == ModeSPBags {
			continue // the oracle models future joins; SPBags deliberately does not
		}
		ref := NewEngine(Config{Mode: mode, Mem: MemFull, Verify: true, MaxRaces: 1 << 20}).Run(epochProg)
		if ref.Err != nil {
			t.Fatalf("%v verify: %v", mode, ref.Err)
		}
		for _, v := range ref.Violations {
			t.Fatalf("%v verify: %s: %s", mode, v.Kind, v.Detail)
		}
		if ref.Stats.Shadow.EpochHits != 0 {
			t.Fatalf("%v verify: reference run took %d epoch transfers, want 0",
				mode, ref.Stats.Shadow.EpochHits)
		}
		if !reflect.DeepEqual(serial.Races, ref.Races) {
			t.Fatalf("%v: epoch run and epoch-free reference diverge\nepoch %v\nref   %v",
				mode, serial.Races, ref.Races)
		}
	}
}

// TestConsumersCheckConcurrently proves true overlap: the first batch is
// held in flight on one consumer while the engine seals the fan-out's
// batches; once released, the scheduler must dispatch the accumulated
// window across both consumers — the hook rendezvous only completes when
// two consumer goroutines are inside batch checks at the same time.
func TestConsumersCheckConcurrently(t *testing.T) {
	e := NewEngine(Config{Mode: ModeMultiBags, Mem: MemFull, Consumers: 2})
	release := make(chan struct{})
	proceed := make(chan struct{})
	arrivals := make(chan struct{}, 16)
	var first atomic.Bool
	first.Store(true)
	var sawTimeout atomic.Bool
	e.be.testHook = func(*event.Batch) {
		if first.CompareAndSwap(true, false) {
			<-release // hold batch 1: the fan-out seals behind it
			return
		}
		arrivals <- struct{}{}
		select {
		case <-proceed:
		case <-time.After(10 * time.Second):
			sawTimeout.Store(true)
		}
	}
	go func() { // rendezvous: two batches in flight at once
		<-arrivals
		<-arrivals
		close(proceed)
	}()
	rep := e.Run(func(tk *Task) {
		tk.WriteRange(1, 200) // batch 1: held
		for i := 0; i < 4; i++ {
			base := uint64(1 + (i+1)*2*4096)
			tk.Spawn(func(c *Task) { c.WriteRange(base, 300) })
		}
		close(release) // everything sealed; let the window form and fly
		tk.Sync()
	})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if sawTimeout.Load() {
		t.Fatal("consumers never checked two batches concurrently")
	}
	if rep.Racy() {
		t.Fatalf("clean program reported races: %v", rep.Races)
	}
	if w := e.MaxDispatchedWindow(); w < 2 {
		t.Fatalf("MaxDispatchedWindow = %d, want >= 2 (independent fan-out)", w)
	}
}

// TestConsumersDependentDegeneratesToSerial drives a construct-dense
// program in which every batch is dependent on its predecessor (same
// pages, plus a sync barrier between any two) through the consumer pool:
// the pipeline must degenerate to serial order — zero independent
// batches, identical report — and terminate (no deadlock; watchdog).
func TestConsumersDependentDegeneratesToSerial(t *testing.T) {
	prog := func(tk *Task) {
		tk.Write(1)
		for i := 0; i < 300; i++ {
			tk.Spawn(func(c *Task) {
				c.WriteRange(1, 40) // same page every time: all dependent
			})
			tk.Sync() // barrier mutation between every pair of batches
		}
		tk.Read(1)
	}
	serial := NewEngine(Config{Mode: ModeMultiBagsPlus, Mem: MemFull, MaxRaces: 1 << 20}).Run(prog)
	if serial.Err != nil {
		t.Fatal(serial.Err)
	}
	if serial.Stats.Event.IndependentBatches != 0 {
		t.Fatalf("IndependentBatches = %d, want 0 (every batch is dependent)",
			serial.Stats.Event.IndependentBatches)
	}
	for _, consumers := range []int{2, 4} {
		done := make(chan *Report, 1)
		go func() {
			done <- NewTunedEngine(Config{
				Mode: ModeMultiBagsPlus, Mem: MemFull, MaxRaces: 1 << 20,
				Consumers: consumers,
			}, Tuning{ConstructAhead: 8}).Run(prog)
		}()
		var rep *Report
		select {
		case rep = <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("consumers=%d: dependent pipeline deadlocked", consumers)
		}
		if rep.Err != nil {
			t.Fatalf("consumers=%d: %v", consumers, rep.Err)
		}
		ss, as := serial.Stats, rep.Stats
		ss.Shadow.PageCacheHits, as.Shadow.PageCacheHits = 0, 0
		ss.Event.StolenChunks, ss.Event.OverlappedWindows = 0, 0
		as.Event.StolenChunks, as.Event.OverlappedWindows = 0, 0
		if !reflect.DeepEqual(serial.Races, rep.Races) || !reflect.DeepEqual(ss, as) {
			t.Fatalf("consumers=%d diverges from serial:\nserial %+v\ngot    %+v",
				consumers, ss, as)
		}
	}
}

// TestConsumersCheckStructuredDefersGets: CheckStructured's discipline
// query no longer drains the back-end — it is deferred and answered from
// the versioned snapshot in stream order. A structured program must stay
// violation-free and a multi-touch one must report the same violations in
// the same order as the synchronous pipeline, for every consumer count.
func TestConsumersCheckStructuredDefersGets(t *testing.T) {
	structured := func(tk *Task) {
		for i := 0; i < 40; i++ {
			base := uint64(1 + i*2*4096)
			h := tk.CreateFut(func(ft *Task) any {
				ft.WriteRange(base, 80)
				return i
			})
			tk.ReadRange(base, 80) // parallel: races
			tk.GetFut(h)
			tk.ReadRange(base, 80) // ordered after the get
		}
	}
	multiTouch := func(tk *Task) {
		h := tk.CreateFut(func(ft *Task) any { ft.Write(1); return 0 })
		tk.GetFut(h)
		tk.GetFut(h) // multi-touch violation
		tk.Write(1)
	}
	for _, prog := range []func(*Task){structured, multiTouch} {
		serial := NewEngine(Config{
			Mode: ModeMultiBags, Mem: MemFull, CheckStructured: true, MaxRaces: 1 << 20,
		}).Run(prog)
		if serial.Err != nil {
			t.Fatal(serial.Err)
		}
		for _, cfg := range []Config{
			{Mode: ModeMultiBags, Mem: MemFull, CheckStructured: true, MaxRaces: 1 << 20, Consumers: 1},
			{Mode: ModeMultiBags, Mem: MemFull, CheckStructured: true, MaxRaces: 1 << 20, Consumers: 4},
			{Mode: ModeMultiBags, Mem: MemFull, CheckStructured: true, MaxRaces: 1 << 20, Consumers: 2},
		} {
			rep := NewEngine(cfg).Run(prog)
			if rep.Err != nil {
				t.Fatalf("c=%d: %v", cfg.Consumers, rep.Err)
			}
			if !reflect.DeepEqual(serial.Violations, rep.Violations) {
				t.Fatalf("c=%d: violations diverge\nserial %v\ngot    %v",
					cfg.Consumers, serial.Violations, rep.Violations)
			}
			if !reflect.DeepEqual(serial.Races, rep.Races) {
				t.Fatalf("c=%d: races diverge", cfg.Consumers)
			}
		}
	}
}

// TestConsumersIneligibleFallsBack: the oracle and Verify runs must fall
// back to inline checking (their query paths are not concurrent-safe)
// and still produce correct reports.
func TestConsumersIneligibleFallsBack(t *testing.T) {
	prog := func(tk *Task) {
		tk.Spawn(func(c *Task) { c.WriteRange(1, 100) })
		tk.ReadRange(1, 100) // races
		tk.Sync()
	}
	for _, cfg := range []Config{
		{Mode: ModeOracle, Mem: MemFull, Consumers: 4},
		{Mode: ModeMultiBagsPlus, Mem: MemFull, Consumers: 4, Verify: true},
	} {
		e := NewEngine(cfg)
		if e.consumers != 0 {
			t.Fatalf("%v verify=%v: consumers = %d, want fallback to 0",
				cfg.Mode, cfg.Verify, e.consumers)
		}
		rep := e.Run(prog)
		if rep.Err != nil {
			t.Fatal(rep.Err)
		}
		if !rep.Racy() {
			t.Fatalf("%v: race missed after fallback", cfg.Mode)
		}
	}
}

// TestConsumersInstrumentationOnly: MemInstr batches carry no queries or
// installs, so any consumer count must run and keep the zeroed history
// counters of the instrumentation configuration. The second program
// deliberately overlaps every task on the same pages: instrumentation
// touch traffic commutes, the scheduler legitimately checks those
// batches concurrently, and the install audit must not treat the
// overlap as a scheduler bug (instr batches claim nothing).
func TestConsumersInstrumentationOnly(t *testing.T) {
	disjoint := func(tk *Task) {
		for i := 0; i < 6; i++ {
			base := uint64(1 + i*2*4096)
			tk.Spawn(func(c *Task) { c.WriteRange(base, 5000) })
		}
		tk.Sync()
	}
	overlapping := func(tk *Task) {
		for i := 0; i < 16; i++ {
			tk.Spawn(func(c *Task) { c.WriteRange(1, 3000) }) // same pages every time
		}
		tk.Sync()
	}
	for _, prog := range []func(*Task){disjoint, overlapping} {
		for _, detecting := range []Mode{ModeNone, ModeMultiBags} {
			rep := NewEngine(Config{Mode: detecting, Mem: MemInstr, Consumers: 4}).Run(prog)
			if rep.Err != nil {
				t.Fatalf("mode=%v: %v", detecting, rep.Err)
			}
			if sh := rep.Stats.Shadow; sh.Reads != 0 || sh.Writes != 0 {
				t.Fatalf("mode=%v: instr run kept history: %+v", detecting, sh)
			}
		}
	}
}

// TestDepAccumulatorsBounded: a MemOff engine has no batch layer, so the
// dependency classifiers must not accumulate at all; and on a batching
// engine an access-free return storm must stay within the accumulator
// bound (collapsing to a barrier past it) instead of growing per spawn.
func TestDepAccumulatorsBounded(t *testing.T) {
	spawnStorm := func(n int) func(*Task) {
		return func(tk *Task) {
			for i := 0; i < n; i++ {
				// A two-strand child subtree, so the return carries a span.
				tk.Spawn(func(c *Task) {
					c.Spawn(func(*Task) {})
					c.Sync()
				})
			}
			tk.Sync()
		}
	}
	e := NewEngine(Config{Mode: ModeMultiBagsPlus, Mem: MemOff})
	if rep := e.Run(spawnStorm(500)); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if len(e.depSpans) != 0 || len(e.statSpans) != 0 {
		t.Fatalf("MemOff run accumulated %d/%d dependency spans, want 0/0",
			len(e.depSpans), len(e.statSpans))
	}
	// Barrier-free span storm: a spawned child that creates (and never
	// gets) a future returns a multi-strand subtree with no join or get
	// mutation anywhere, so only the accumulator bound can stop growth.
	futStorm := func(n int) func(*Task) {
		return func(tk *Task) {
			for i := 0; i < n; i++ {
				tk.Spawn(func(c *Task) {
					c.CreateFut(func(*Task) any { return nil })
				})
			}
		}
	}
	// MultiBags here: MultiBags+'s R closure is deliberately O(k²) in
	// never-gotten futures (the paper's Fig. 8 term) and this storm only
	// needs the engine-side accumulators exercised.
	e = NewEngine(Config{Mode: ModeMultiBags, Mem: MemFull})
	if rep := e.Run(futStorm(3 * maxDepSpans)); rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if len(e.depSpans) > maxDepSpans || len(e.statSpans) > maxDepSpans {
		t.Fatalf("access-free storm grew accumulators to %d/%d, bound %d",
			len(e.depSpans), len(e.statSpans), maxDepSpans)
	}
}
