package detect

import (
	"reflect"
	"testing"
	"time"
)

// These tests pin the async detection consumer: sealed batches are
// checked off the engine goroutine in seal order, each against the
// relation at its own version, with reports that stay verdict-, order-
// and counter-identical to an inline run.

// consumersProg mixes the pipeline's regimes: a wide fan-out of leaf
// tasks over disjoint pages, children sharing racy pages (ordered race
// delivery), a future raced against its creator, owned-word re-reads and
// repeated read-shared passes.
func consumersProg(tk *Task) {
	tk.WriteRange(1<<20, 300) // shared region, written before the fan-out
	for i := 0; i < 8; i++ {
		base := uint64(1 + i*4*4096) // four pages apart
		tk.Spawn(func(c *Task) {
			c.WriteRange(base, 900)
			c.ReadRange(base, 900) // own writes: owned skips
			if i%2 == 1 {
				// Odd children also touch the shared region: the re-writes
				// race against the parent's pre-fan-out writes.
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
// algorithms, the async run (Consumers 1) must deep-equal the inline run
// — the race stream (content and order), the violations and the full
// Stats, shadow protocol traffic, page-cache hits, owned and read-shared
// skips, memo hits, reachability queries and batch counters included. Every
// Consumers >= 1 runs the same one consumer, so 2 and 4 must deep-equal
// 1 as whole Reports. The oracle and Verify runs take the async pipeline
// too and must match their inline runs the same way.
func TestConsumersEquivalence(t *testing.T) {
	type run struct {
		mode   Mode
		verify bool
	}
	runs := []run{{mode: ModeSPBags}, {mode: ModeMultiBags}, {mode: ModeMultiBagsPlus},
		{mode: ModeOracle}, {mode: ModeMultiBags, verify: true}, {mode: ModeMultiBagsPlus, verify: true}}
	for _, r := range runs {
		cfg := Config{Mode: r.mode, Mem: MemFull, MaxRaces: 1 << 20, Verify: r.verify}
		serial := NewEngine(cfg).Run(consumersProg)
		if serial.Err != nil {
			t.Fatalf("%+v: %v", r, serial.Err)
		}
		if !serial.Racy() {
			t.Fatalf("%+v: program raced nowhere; the test needs races to order", r)
		}
		cfg.Consumers = 1
		async := NewEngine(cfg).Run(consumersProg)
		if !reflect.DeepEqual(serial, async) {
			t.Fatalf("%+v: async run diverges from inline\ninline %+v\nasync  %+v", r, serial, async)
		}
		for _, consumers := range []int{2, 4} {
			cfg.Consumers = consumers
			if rep := NewEngine(cfg).Run(consumersProg); !reflect.DeepEqual(async, rep) {
				t.Fatalf("%+v c=%d: report diverges from Consumers 1\nc=1 %+v\ngot %+v", r, consumers, async, rep)
			}
		}
	}
}

// epochProg re-reads shared data across construct generations: four
// children install disjoint writer blocks over one shared range, then the
// parent re-scans the whole range with a real spawn+sync between scans —
// every scan runs in a new construct generation on a new strand of the
// same function, so each scan joins the words' reader lists and the
// lists inflate, and its re-scan finds the strand recorded. A future raced against its creator keeps the race stream
// non-empty so delivery order is pinned.
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
		tk.ReadRange(1, 4096) // a re-scan: every word skips
	}
	h := tk.CreateFut(func(ft *Task) any {
		ft.WriteRange(1<<21, 64)
		return nil
	})
	tk.ReadRange(1<<21, 64) // parallel with the future: races
	tk.GetFut(h)
}

// TestEpochConsumersEquivalence pins the reader-list counters across
// both pipelines on cross-generation re-reads: for every algorithm ×
// Consumers ∈ {0,1}, the full Stats — including EpochInflations,
// EpochDeflations and SpillEntries — must deep-equal the serial run, and
// the serial run must actually inflate reader lists. For the verifying
// algorithms, a Verify run, which audits every query against the oracle,
// must report the identical race stream with no violations.
func TestEpochConsumersEquivalence(t *testing.T) {
	for _, mode := range []Mode{ModeSPBags, ModeMultiBags, ModeMultiBagsPlus} {
		serial := NewEngine(Config{Mode: mode, Mem: MemFull, MaxRaces: 1 << 20}).Run(epochProg)
		if serial.Err != nil {
			t.Fatalf("%v: %v", mode, serial.Err)
		}
		if !serial.Racy() {
			t.Fatalf("%v: program raced nowhere; the test needs races to order", mode)
		}
		if serial.Stats.Shadow.EpochInflations == 0 {
			t.Fatalf("%v: no reader list inflated; the test exercises nothing", mode)
		}
		// Each pass's re-scan skips all 4096 words: the first pass's
		// strand is the words' inline reader, the later passes' strands
		// are the last entries of inflated lists.
		if got := serial.Stats.Shadow.ReadSharedSkips; got != 3*4096 {
			t.Fatalf("%v: %d read-shared skips, want %d", mode, got, 3*4096)
		}
		for _, consumers := range []int{0, 1} {
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
			if !reflect.DeepEqual(serial.Stats, rep.Stats) {
				t.Fatalf("%v c=%d: stats diverge\nserial %+v\ngot    %+v",
					mode, consumers, serial.Stats, rep.Stats)
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
		if !reflect.DeepEqual(serial.Races, ref.Races) {
			t.Fatalf("%v: plain run and verified reference diverge\nplain %v\nref   %v",
				mode, serial.Races, ref.Races)
		}
	}
}

// TestConsumersDependentDegeneratesToSerial drives a construct-dense
// program in which every batch depends on its predecessor (same pages,
// plus a sync between any two) through the async consumer: the report
// must match the inline run and the pipeline must terminate (no
// deadlock).
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
	done := make(chan *Report, 1)
	go func() {
		done <- NewEngine(Config{
			Mode: ModeMultiBagsPlus, Mem: MemFull, MaxRaces: 1 << 20,
			Consumers: 1,
		}).Run(prog)
	}()
	var rep *Report
	select {
	case rep = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("dependent pipeline deadlocked")
	}
	if !reflect.DeepEqual(serial, rep) {
		t.Fatalf("async run diverges from inline:\ninline %+v\nasync  %+v", serial, rep)
	}
}

// TestConsumersCheckStructuredDefersGets: CheckStructured's discipline
// query does not wait for the consumer — it is deferred and answered at
// the get's version in stream order. A structured program must stay
// violation-free and a multi-touch one must report the same violations in
// the same order as the inline pipeline.
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
			{Mode: ModeOracle, Mem: MemFull, CheckStructured: true, MaxRaces: 1 << 20, Consumers: 1},
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

// TestConsumersOracleAndVerifyAsync: the oracle and Verify runs take the
// async consumer like every other algorithm — the consumer is the only
// goroutine querying their relations — and still find the race.
func TestConsumersOracleAndVerifyAsync(t *testing.T) {
	prog := func(tk *Task) {
		tk.Spawn(func(c *Task) { c.WriteRange(1, 100) })
		tk.ReadRange(1, 100) // races
		tk.Sync()
	}
	for _, cfg := range []Config{
		{Mode: ModeOracle, Mem: MemFull, Consumers: 1},
		{Mode: ModeMultiBagsPlus, Mem: MemFull, Consumers: 1, Verify: true},
	} {
		e := NewEngine(cfg)
		if e.be == nil {
			t.Fatalf("%v verify=%v: no async consumer", cfg.Mode, cfg.Verify)
		}
		rep := e.Run(prog)
		if rep.Err != nil {
			t.Fatal(rep.Err)
		}
		if !rep.Racy() {
			t.Fatalf("%v: race missed on the async consumer", cfg.Mode)
		}
		for _, v := range rep.Violations {
			t.Fatalf("%v verify: %s: %s", cfg.Mode, v.Kind, v.Detail)
		}
	}
}

// TestConsumersInstrumentationOnly: MemInstr batches carry no queries or
// installs, so the async consumer must run them and keep the zeroed
// history counters of the instrumentation configuration, whether the
// tasks touch disjoint pages or the same pages every time.
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
			rep := NewEngine(Config{Mode: detecting, Mem: MemInstr, Consumers: 1}).Run(prog)
			if rep.Err != nil {
				t.Fatalf("mode=%v: %v", detecting, rep.Err)
			}
			if sh := rep.Stats.Shadow; sh.Reads != 0 || sh.Writes != 0 {
				t.Fatalf("mode=%v: instr run kept history: %+v", detecting, sh)
			}
		}
	}
}
