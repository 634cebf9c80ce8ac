package detect

import "testing"

// TestUserPanicPropagates: a panic in user code must not be swallowed by
// the engine's recover (which only intercepts engine failures).
func TestUserPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want user panic", r)
		}
	}()
	NewEngine(Config{Mode: ModeMultiBags}).Run(func(tk *Task) {
		panic("boom")
	})
	t.Fatal("unreachable")
}

// TestDeepFutureChain: thousands of nested future creations (each future
// created inside the previous one's body) must work — the pipeline
// benchmarks build exactly this shape.
func TestDeepFutureChain(t *testing.T) {
	const depth = 5000
	rep := detectWith(ModeMultiBagsPlus, func(tk *Task) {
		var rec func(t *Task, d int) any
		rec = func(t *Task, d int) any {
			if d == 0 {
				t.Write(1)
				return 0
			}
			h := t.CreateFut(func(c *Task) any { return rec(c, d-1) })
			return t.GetFut(h)
		}
		rec(tk, depth)
		tk.Read(1) // ordered through the get chain
	})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.Racy() {
		t.Fatalf("deep chain raced: %v", rep.Races[0])
	}
	if rep.Stats.Functions != depth+1 {
		t.Fatalf("Functions = %d, want %d", rep.Stats.Functions, depth+1)
	}
}

// TestWideSync: one function spawning many children exercises the binary
// sync decomposition at width.
func TestWideSync(t *testing.T) {
	const width = 2000
	for _, mode := range []Mode{ModeMultiBags, ModeMultiBagsPlus} {
		rep := detectWith(mode, func(tk *Task) {
			for i := 0; i < width; i++ {
				i := i
				tk.Spawn(func(c *Task) { c.Write(uint64(100 + i)) })
			}
			tk.Sync()
			for i := 0; i < width; i++ {
				tk.Read(uint64(100 + i)) // all ordered after the sync
			}
		})
		if rep.Racy() {
			t.Fatalf("%v: wide sync lost orderings: %v", mode, rep.Races[0])
		}
	}
}

// TestInterleavedSpawnsAndFutures mixes the construct kinds in one scope:
// the sync must join spawns but not futures.
func TestInterleavedSpawnsAndFutures(t *testing.T) {
	rep := detectWith(ModeMultiBagsPlus, func(tk *Task) {
		h1 := tk.CreateFut(func(c *Task) any { c.Write(1); return nil })
		tk.Spawn(func(c *Task) { c.Write(2) })
		h2 := tk.CreateFut(func(c *Task) any { c.Write(3); return nil })
		tk.Spawn(func(c *Task) { c.Write(4) })
		tk.Sync()
		tk.Read(2) // joined by sync
		tk.Read(4) // joined by sync
		tk.GetFut(h1)
		tk.Read(1) // joined by get
		tk.GetFut(h2)
		tk.Read(3) // joined by get
	})
	if rep.Racy() {
		t.Fatalf("false positive: %v", rep.Races[0])
	}
	// Same program but reading a future's data after only the sync races.
	rep = detectWith(ModeMultiBagsPlus, func(tk *Task) {
		h := tk.CreateFut(func(c *Task) any { c.Write(9); return nil })
		tk.Spawn(func(c *Task) {})
		tk.Sync()
		tk.Read(9) // NOT ordered: the sync does not join the future
		tk.GetFut(h)
	})
	if !rep.Racy() {
		t.Fatal("escaping future's write not flagged after sync-only join")
	}
}

// TestEmptySyncAndRepeatSyncs are harmless no-ops.
func TestEmptySyncAndRepeatSyncs(t *testing.T) {
	rep := detectWith(ModeMultiBags, func(tk *Task) {
		tk.Sync()
		tk.Spawn(func(c *Task) { c.Sync(); c.Sync() })
		tk.Sync()
		tk.Sync()
	})
	if rep.Err != nil || rep.Racy() {
		t.Fatalf("rep = %+v", rep)
	}
}

// TestFutureReturningFutureHandle: handles as values (the Figure 2
// pattern: C returns D's handle to B, B hands F's handle to A).
func TestFutureReturningFutureHandle(t *testing.T) {
	rep := detectWith(ModeMultiBags, func(tk *Task) {
		outer := tk.CreateFut(func(c *Task) any {
			inner := c.CreateFut(func(ci *Task) any {
				ci.Write(77)
				return nil
			})
			return inner // escape via return value — still structured
		})
		inner := tk.GetFut(outer).(*Fut)
		tk.GetFut(inner)
		tk.Read(77) // ordered through both gets
	})
	if rep.Racy() {
		t.Fatalf("handle-through-return false positive: %v", rep.Races[0])
	}
}

// TestEnclosingHandleAccess: a spawned body that accesses memory through
// its parent's handle does so as the parent's current (fork) strand, with
// no construct in between. Every batch carries one strand, so the engine
// must seal at the strand change; otherwise p.Write(2) would be checked as
// the child's and race with the parent's later write of 2.
func TestEnclosingHandleAccess(t *testing.T) {
	prog := func(p *Task) {
		p.Spawn(func(c *Task) {
			c.Write(1)
			p.Write(2)
			c.Write(3)
		})
		p.Write(1)
		p.Write(2)
		p.Write(3)
	}
	for _, consumers := range []int{0, 1} {
		rep := NewEngine(Config{Mode: ModeMultiBags, Mem: MemFull, Consumers: consumers}).Run(prog)
		if rep.Err != nil {
			t.Fatalf("c=%d: %v", consumers, rep.Err)
		}
		var addrs []uint64
		for _, r := range rep.Races {
			addrs = append(addrs, r.Addr)
		}
		if len(addrs) != 2 || addrs[0] != 1 || addrs[1] != 3 {
			t.Fatalf("c=%d: races on %v, want exactly 1 and 3", consumers, addrs)
		}
	}
}
