package detect

import (
	"fmt"
	"testing"

	"futurerd/internal/event"
)

// These tests pin the event-batch pipeline: accesses buffer in coalescing
// batches, batches seal at parallel constructs, and with Consumers >= 1
// the sealed batches are checked on the async consumer overlapping
// continued execution — all without changing a single verdict, report
// order, or deterministic counter.

// stridedRacer writes non-coalescible (stride-2) words from a spawned
// child and again from the logically-parallel parent, so every word races
// and the op count exceeds any batch cap.
func stridedRacer(n int) func(*Task) {
	return func(t *Task) {
		t.Spawn(func(c *Task) {
			for i := 0; i < n; i++ {
				c.Write(uint64(1 + 2*i))
			}
		})
		for i := 0; i < n; i++ {
			t.Write(uint64(1 + 2*i))
		}
		t.Sync()
	}
}

// TestBatchOverflowFlushesMidWindow drives more non-coalescible ops than
// one batch holds through a single construct-free window: the mid-window
// flushes must preserve every verdict and the report order.
func TestBatchOverflowFlushesMidWindow(t *testing.T) {
	n := 3*event.MaxOps + 17
	for _, consumers := range []int{0, 1} {
		rep := NewEngine(Config{
			Mode: ModeMultiBagsPlus, Mem: MemFull,
			Consumers: consumers, MaxRaces: 1 << 21,
		}).Run(stridedRacer(n))
		if rep.Err != nil {
			t.Fatalf("consumers=%d: %v", consumers, rep.Err)
		}
		if got := int(rep.Stats.RaceCount); got != n {
			t.Fatalf("consumers=%d: RaceCount = %d, want %d", consumers, got, n)
		}
		if len(rep.Races) != n {
			t.Fatalf("consumers=%d: len(Races) = %d, want %d", consumers, len(rep.Races), n)
		}
		for i, r := range rep.Races {
			if r.Addr != uint64(1+2*i) {
				t.Fatalf("consumers=%d: race %d at addr %#x, want %#x (order broken)",
					consumers, i, r.Addr, 1+2*i)
			}
		}
	}
}

// TestAsyncBackendMatchesSerial compares a Consumers=1 run (the async
// consumer) against an inline run for every algorithm, the oracle
// included.
func TestAsyncBackendMatchesSerial(t *testing.T) {
	prog := func(t *Task) {
		h := t.CreateFut(func(ft *Task) any {
			ft.WriteRange(100, 600)
			return nil
		})
		t.ReadRange(100, 600) // races with the future on every word
		for i := 0; i < 50; i++ {
			t.Write(uint64(5000 + i*3)) // non-coalescible tail
		}
		t.GetFut(h)
		t.ReadRange(100, 600) // ordered now: race free
		return
	}
	for _, mode := range []Mode{ModeSPBags, ModeMultiBags, ModeMultiBagsPlus, ModeOracle} {
		serial := NewEngine(Config{Mode: mode, Mem: MemFull, MaxRaces: 1 << 20}).Run(prog)
		async := NewEngine(Config{
			Mode: mode, Mem: MemFull, MaxRaces: 1 << 20, Consumers: 1,
		}).Run(prog)
		if serial.Err != nil || async.Err != nil {
			t.Fatalf("%v: errs %v / %v", mode, serial.Err, async.Err)
		}
		if serial.Stats.RaceCount != async.Stats.RaceCount ||
			len(serial.Races) != len(async.Races) {
			t.Fatalf("%v: races diverge: serial %d/%d, async %d/%d",
				mode, len(serial.Races), serial.Stats.RaceCount,
				len(async.Races), async.Stats.RaceCount)
		}
		for i := range serial.Races {
			if serial.Races[i] != async.Races[i] {
				t.Fatalf("%v: race %d differs: %v vs %v",
					mode, i, serial.Races[i], async.Races[i])
			}
		}
		ss, as := serial.Stats.Shadow, async.Stats.Shadow
		if ss.Reads != as.Reads || ss.Writes != as.Writes ||
			ss.OwnedSkips != as.OwnedSkips || ss.ReaderAppends != as.ReaderAppends ||
			ss.ReaderFlushes != as.ReaderFlushes {
			t.Fatalf("%v: shadow counters diverge\nserial %+v\nasync  %+v", mode, ss, as)
		}
	}
}

// TestCoalescingPreservesInstrChecksum: under MemInstr the batched touch
// traffic must decode the same word count whether or not the pipeline is
// asynchronous.
func TestCoalescingPreservesInstrChecksum(t *testing.T) {
	prog := func(t *Task) {
		for i := 0; i < 10_000; i++ {
			t.Read(uint64(1 + i)) // coalesces into one range
		}
		t.Spawn(func(c *Task) { c.WriteRange(1, 5_000) })
		t.Sync()
	}
	for _, consumers := range []int{0, 1} {
		rep := NewEngine(Config{Mem: MemInstr, Consumers: consumers}).Run(prog)
		if rep.Err != nil {
			t.Fatalf("consumers=%d: %v", consumers, rep.Err)
		}
		sh := rep.Stats.Shadow
		if sh.Reads != 0 || sh.Writes != 0 {
			// MemInstr keeps no history; the counters stay zero while the
			// checksum work still runs (not observable here beyond no-crash).
			t.Fatalf("consumers=%d: instr run kept history: %+v", consumers, sh)
		}
	}
}

// TestBatchSealsAtEveryConstruct places one access before each construct
// kind and checks the per-word protocol outcome is order-exact: the
// access must be checked under the relation in force when it executed,
// not the one after the construct.
func TestBatchSealsAtEveryConstruct(t *testing.T) {
	// The child writes addr 1; the parent wrote addr 1 before the spawn
	// (ordered, no race) and writes it again after the sync (ordered, no
	// race). A batch leaking across the spawn or sync would check under
	// the wrong relation.
	rep := NewEngine(Config{Mode: ModeMultiBagsPlus, Mem: MemFull, Verify: true}).
		Run(func(t *Task) {
			t.Write(1)
			t.Spawn(func(c *Task) { c.Write(1) })
			t.Sync()
			t.Write(1)
			h := t.CreateFut(func(ft *Task) any { ft.Write(2); return nil })
			t.GetFut(h)
			t.Write(2) // ordered via the get
		})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	for _, v := range rep.Violations {
		t.Fatalf("%s: %s", v.Kind, v.Detail)
	}
	if rep.Racy() {
		t.Fatalf("ordered accesses misreported as races: %v", rep.Races)
	}
}

// TestOnRaceDeliveredBeforeRunReturns: the callback contract survives
// the asynchronous pipeline — every OnRace fires before Run returns, on
// some goroutine, with the full race set delivered.
func TestOnRaceDeliveredBeforeRunReturns(t *testing.T) {
	var seen []Race
	rep := NewEngine(Config{
		Mode: ModeMultiBagsPlus, Mem: MemFull,
		Consumers: 1, MaxRaces: 1 << 20,
		OnRace: func(r Race) { seen = append(seen, r) },
	}).Run(stridedRacer(500))
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if len(seen) != len(rep.Races) {
		t.Fatalf("OnRace fired %d times, report has %d races", len(seen), len(rep.Races))
	}
	for i := range seen {
		if seen[i] != rep.Races[i] {
			t.Fatalf("callback race %d = %v, report has %v", i, seen[i], rep.Races[i])
		}
	}
}

// TestLabelConcurrentWithBackend interleaves Label calls with enough
// non-coalescible racy traffic that batches flush to the asynchronous
// back-end mid-window: the label map is then written by the engine
// goroutine while the back-end resolves labels for OnRace delivery. Run
// under -race this pins the raceMu guard on the map; the final report
// must carry the labels deterministically (resolved after the run).
func TestLabelConcurrentWithBackend(t *testing.T) {
	n := event.MaxOps + 500
	rep := NewEngine(Config{
		Mode: ModeMultiBagsPlus, Mem: MemFull,
		Consumers: 1, MaxRaces: 1 << 21,
		OnRace: func(Race) {}, // force the back-end's label lookups
	}).Run(func(t *Task) {
		t.Label("main")
		t.Spawn(func(c *Task) {
			c.Label("child")
			for i := 0; i < n; i++ {
				c.Write(uint64(1 + 2*i))
			}
		})
		for i := 0; i < n; i++ {
			t.Write(uint64(1 + 2*i))
			if i%64 == 0 {
				t.Label("main") // engine-goroutine map writes during back-end checks
			}
		}
		t.Sync()
	})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if int(rep.Stats.RaceCount) != n {
		t.Fatalf("RaceCount = %d, want %d", rep.Stats.RaceCount, n)
	}
	for _, r := range rep.Races {
		if r.PrevLabel != "child" || r.CurrLabel != "main" {
			t.Fatalf("race labels = %q/%q, want child/main: %v", r.PrevLabel, r.CurrLabel, r)
		}
	}
}

// TestBeginEndConstructAPI drives the streaming construct API directly
// (as the trace replayer does) and checks it is indistinguishable from
// the callback API.
func TestBeginEndConstructAPI(t *testing.T) {
	viaCallbacks := func(t *Task) {
		h := t.CreateFut(func(ft *Task) any { ft.Write(7); return 41 })
		t.Write(7)
		t.Spawn(func(c *Task) { c.Read(9) })
		t.Write(9)
		t.Sync()
		t.GetFut(h)
	}
	cfg := Config{Mode: ModeMultiBagsPlus, Mem: MemFull}
	want := NewEngine(cfg).Run(viaCallbacks)

	e := NewEngine(cfg)
	got := e.Run(func(t *Task) {
		child, h := e.BeginFut(t)
		child.Write(7)
		e.EndFut(t, child, h, 41)
		t.Write(7)
		sp := e.BeginSpawn(t)
		sp.Read(9)
		e.EndSpawn(t, sp)
		t.Write(9)
		t.Sync()
		if v := t.GetFut(h); v != 41 {
			panic(fmt.Sprintf("future value = %v, want 41", v))
		}
	})
	if want.Err != nil || got.Err != nil {
		t.Fatalf("errs: %v / %v", want.Err, got.Err)
	}
	if len(want.Races) != len(got.Races) || want.Stats.RaceCount != got.Stats.RaceCount ||
		want.Stats.Strands != got.Stats.Strands || want.Stats.Syncs != got.Stats.Syncs {
		t.Fatalf("Begin/End diverges from callbacks:\nwant %+v\ngot  %+v", want.Stats, got.Stats)
	}
	for i := range want.Races {
		if want.Races[i] != got.Races[i] {
			t.Fatalf("race %d: %v vs %v", i, want.Races[i], got.Races[i])
		}
	}
}
