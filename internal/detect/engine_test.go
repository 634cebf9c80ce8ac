package detect

import (
	"errors"
	"reflect"
	"testing"
)

// allModes are the sound detection modes for future programs.
var futureSoundModes = []Mode{ModeMultiBags, ModeMultiBagsPlus, ModeOracle}

func detectWith(mode Mode, root func(*Task)) *Report {
	return NewEngine(Config{Mode: mode, Mem: MemFull}).Run(root)
}

func TestFutureContinuationRace(t *testing.T) {
	// The future body writes X; the creator's continuation writes X before
	// joining: a classic write-write determinacy race.
	for _, mode := range futureSoundModes {
		rep := detectWith(mode, func(t *Task) {
			h := t.CreateFut(func(ft *Task) any {
				ft.Write(100)
				return nil
			})
			t.Write(100) // parallel with the future body
			t.GetFut(h)
		})
		if !rep.Racy() {
			t.Errorf("%v: race not detected", mode)
		}
	}
}

func TestNoRaceAfterGet(t *testing.T) {
	for _, mode := range futureSoundModes {
		rep := detectWith(mode, func(t *Task) {
			h := t.CreateFut(func(ft *Task) any {
				ft.Write(100)
				return nil
			})
			t.GetFut(h)
			t.Write(100) // ordered by the get edge
			t.Read(100)
		})
		if rep.Racy() {
			t.Errorf("%v: false positive: %v", mode, rep.Races)
		}
	}
}

func TestSpawnContinuationRace(t *testing.T) {
	for _, mode := range append(futureSoundModes, ModeSPBags) {
		rep := detectWith(mode, func(t *Task) {
			t.Spawn(func(c *Task) { c.Write(7) })
			t.Read(7) // parallel with the child until sync
			t.Sync()
		})
		if !rep.Racy() {
			t.Errorf("%v: race not detected", mode)
		}
	}
}

func TestNoRaceAfterSync(t *testing.T) {
	for _, mode := range append(futureSoundModes, ModeSPBags) {
		rep := detectWith(mode, func(t *Task) {
			t.Spawn(func(c *Task) { c.Write(7) })
			t.Sync()
			t.Read(7)
		})
		if rep.Racy() {
			t.Errorf("%v: false positive: %v", mode, rep.Races)
		}
	}
}

func TestSiblingSpawnsRace(t *testing.T) {
	for _, mode := range append(futureSoundModes, ModeSPBags) {
		rep := detectWith(mode, func(t *Task) {
			t.Spawn(func(c *Task) { c.Write(3) })
			t.Spawn(func(c *Task) { c.Write(3) })
			t.Sync()
		})
		if !rep.Racy() {
			t.Errorf("%v: sibling write-write race not detected", mode)
		}
	}
}

func TestReadReadNoRace(t *testing.T) {
	for _, mode := range futureSoundModes {
		rep := detectWith(mode, func(t *Task) {
			t.Write(5)
			h := t.CreateFut(func(ft *Task) any { ft.Read(5); return nil })
			t.Read(5) // two parallel reads: fine
			t.GetFut(h)
		})
		if rep.Racy() {
			t.Errorf("%v: read-read false positive", mode)
		}
	}
}

func TestParallelReadThenWriteRaces(t *testing.T) {
	// A reader in a future, then a write in the continuation: the write
	// must be checked against the reader list.
	for _, mode := range futureSoundModes {
		rep := detectWith(mode, func(t *Task) {
			t.Write(9) // initialize
			h := t.CreateFut(func(ft *Task) any { ft.Read(9); return nil })
			t.Write(9) // read-write race with the future's read
			t.GetFut(h)
		})
		if !rep.Racy() {
			t.Errorf("%v: read-write race via reader list not detected", mode)
		}
	}
}

// TestSPBagsMissesFutureRace demonstrates the paper's motivation: a
// fork-join detector is unsound for futures. The future escapes a sync;
// SP-Bags wrongly serializes it at the sync while MultiBags keeps it
// parallel.
func TestSPBagsMissesFutureRace(t *testing.T) {
	prog := func(t *Task) {
		t.CreateFut(func(ft *Task) any { ft.Write(1); return nil })
		t.Spawn(func(c *Task) {})
		t.Sync()   // does NOT join the future
		t.Write(1) // races with the future body
	}
	if rep := detectWith(ModeSPBags, prog); rep.Racy() {
		t.Fatal("SP-Bags unexpectedly caught the future race; baseline miscoded?")
	}
	for _, mode := range futureSoundModes {
		if rep := detectWith(mode, prog); !rep.Racy() {
			t.Errorf("%v: missed the escaping-future race", mode)
		}
	}
}

func TestMultiTouchFuture(t *testing.T) {
	// Two siblings both get the same future (general use). After each get,
	// accesses ordered through it are race free; MultiBags+ must see that.
	rep := detectWith(ModeMultiBagsPlus, func(t *Task) {
		h := t.CreateFut(func(ft *Task) any {
			ft.Write(42)
			return nil
		})
		t.GetFut(h)
		t.Read(42) // ordered
		t.GetFut(h)
		t.Read(42) // still ordered
	})
	if rep.Racy() {
		t.Fatalf("multi-touch false positive: %v", rep.Races)
	}
}

func TestMultiTouchAcrossSiblings(t *testing.T) {
	// h is gotten inside two parallel spawned children. Each child's
	// post-get accesses are ordered with the future body but the children
	// remain parallel with each other.
	rep := detectWith(ModeMultiBagsPlus, func(t *Task) {
		h := t.CreateFut(func(ft *Task) any {
			ft.Write(10)
			return nil
		})
		t.Spawn(func(c *Task) {
			c.GetFut(h)
			c.Read(10) // ordered with the future's write
			c.Write(11)
		})
		t.Spawn(func(c *Task) {
			c.GetFut(h)
			c.Read(10)  // ordered with the future's write
			c.Write(11) // write-write race with the sibling
		})
		t.Sync()
	})
	if len(rep.Races) == 0 {
		t.Fatal("sibling write-write race missed")
	}
	for _, r := range rep.Races {
		if r.Addr == 10 {
			t.Fatalf("false positive on ordered location 10: %v", r)
		}
	}
}

func TestGetBeforeCompletionFails(t *testing.T) {
	rep := detectWith(ModeMultiBagsPlus, func(t *Task) {
		t.GetFut(&Fut{}) // never created by the engine: not done
	})
	if !errors.Is(rep.Err, ErrFutureNotReady) {
		t.Fatalf("want ErrFutureNotReady, got %v", rep.Err)
	}
	rep = detectWith(ModeMultiBagsPlus, func(t *Task) {
		t.GetFut(nil)
	})
	if !errors.Is(rep.Err, ErrFutureNotReady) {
		t.Fatalf("nil handle: want ErrFutureNotReady, got %v", rep.Err)
	}
}

// TestStructuredDisciplineChecker runs each program on both pipelines
// under every back-end that gives it a defined answer, and wants exactly
// the listed violations, in order. The discipline check is answered while
// the get's batch is processed, just before the get's own mutation
// applies; with memory off a whole run is one batch, so a check that
// waited for the end of the batch would see later constructs.
func TestStructuredDisciplineChecker(t *testing.T) {
	progs := []struct {
		name string
		want []string
		prog func(*Task)
	}{
		{"multi-touch", []string{"multi-touch"}, func(t *Task) {
			h := t.CreateFut(func(*Task) any { return nil })
			t.GetFut(h)
			t.GetFut(h)
		}},
		// The future is created inside a spawned child and gotten by the
		// parent without a sync: creator ∥ getter.
		{"unordered-create-get", []string{"unordered-create-get"}, func(t *Task) {
			var h *Fut
			t.Spawn(func(c *Task) {
				h = c.CreateFut(func(*Task) any { return nil })
			})
			t.GetFut(h) // no sync: creator ∥ getter
			t.Sync()
		}},
		// The child creates and gets the future, and the parent gets it a
		// second time without a sync. Under MultiBags the second get
		// unions the child's returned P-bag, creator included, into the
		// parent's S-bag, so only a check made before that get applies
		// sees the creator parallel with the getter.
		{"second-get-before-sync", []string{"multi-touch", "unordered-create-get"}, func(t *Task) {
			var h *Fut
			t.Spawn(func(c *Task) {
				h = c.CreateFut(func(*Task) any { return nil })
				c.GetFut(h)
			})
			t.GetFut(h)
			t.Sync()
		}},
		{"clean", nil, func(t *Task) {
			h := t.CreateFut(func(*Task) any { return nil })
			t.Spawn(func(c *Task) {})
			t.Sync()
			t.GetFut(h)
		}},
	}
	for _, p := range progs {
		for _, mode := range futureSoundModes {
			for _, consumers := range []int{0, 1} {
				rep := NewEngine(Config{Mode: mode, CheckStructured: true, Consumers: consumers}).Run(p.prog)
				if rep.Err != nil {
					t.Fatalf("%s %v c=%d: %v", p.name, mode, consumers, rep.Err)
				}
				var got []string
				for _, v := range rep.Violations {
					got = append(got, v.Kind)
				}
				if !reflect.DeepEqual(got, p.want) {
					t.Errorf("%s %v c=%d: violations %v, want %v", p.name, mode, consumers, got, p.want)
				}
			}
		}
	}
}

func TestRaceDeduplicationAndCap(t *testing.T) {
	rep := NewEngine(Config{Mode: ModeMultiBags, Mem: MemFull, MaxRaces: 4}).
		Run(func(t *Task) {
			h := t.CreateFut(func(ft *Task) any {
				for i := uint64(0); i < 100; i++ {
					ft.Write(1000 + i)
				}
				return nil
			})
			for rep := 0; rep < 3; rep++ { // same addresses three times
				for i := uint64(0); i < 100; i++ {
					t.Write(1000 + i)
				}
			}
			t.GetFut(h)
		})
	if len(rep.Races) != 4 {
		t.Errorf("len(Races) = %d, want cap 4", len(rep.Races))
	}
	if rep.Stats.RaceCount < 100 {
		t.Errorf("RaceCount = %d, want ≥ 100 (each racy address once, repeats included)",
			rep.Stats.RaceCount)
	}
}

func TestRaceLabels(t *testing.T) {
	rep := detectWith(ModeMultiBags, func(t *Task) {
		h := t.CreateFut(func(ft *Task) any {
			ft.Label("producer")
			ft.Write(55)
			return nil
		})
		t.Label("main-loop")
		t.Write(55)
		t.GetFut(h)
	})
	if len(rep.Races) != 1 {
		t.Fatalf("want 1 race, got %d", len(rep.Races))
	}
	r := rep.Races[0]
	if r.PrevLabel != "producer" || r.CurrLabel != "main-loop" {
		t.Errorf("labels = %q/%q, want producer/main-loop", r.PrevLabel, r.CurrLabel)
	}
	if r.String() == "" {
		t.Error("empty race string")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Report {
		return detectWith(ModeMultiBagsPlus, func(t *Task) {
			for i := 0; i < 5; i++ {
				h := t.CreateFut(func(ft *Task) any {
					ft.Write(uint64(200 + i))
					return nil
				})
				if i%2 == 0 {
					t.Write(uint64(200 + i))
				}
				t.GetFut(h)
			}
		})
	}
	a, b := run(), run()
	if len(a.Races) != len(b.Races) || a.Stats.RaceCount != b.Stats.RaceCount {
		t.Fatalf("nondeterministic reports: %d/%d vs %d/%d",
			len(a.Races), a.Stats.RaceCount, len(b.Races), b.Stats.RaceCount)
	}
	for i := range a.Races {
		if a.Races[i] != b.Races[i] {
			t.Fatalf("race %d differs: %v vs %v", i, a.Races[i], b.Races[i])
		}
	}
}

func TestBaselineModeRuns(t *testing.T) {
	sum := 0
	NewEngine(Config{Mode: ModeNone}).Run(func(t *Task) {
		h := t.CreateFut(func(*Task) any { return 21 })
		t.Spawn(func(*Task) { sum += 1 })
		t.Sync()
		sum += t.GetFut(h).(int)
	})
	if sum != 22 {
		t.Fatalf("baseline execution wrong: sum = %d", sum)
	}
}

func TestMemLevels(t *testing.T) {
	prog := func(t *Task) {
		h := t.CreateFut(func(ft *Task) any { ft.Write(1); return nil })
		t.Write(1)
		t.GetFut(h)
	}
	// Reachability-only and instrumentation-only must not report races.
	for _, lvl := range []MemLevel{MemOff, MemInstr} {
		rep := NewEngine(Config{Mode: ModeMultiBags, Mem: lvl}).Run(prog)
		if rep.Racy() {
			t.Errorf("level %v reported races", lvl)
		}
	}
	if rep := NewEngine(Config{Mode: ModeMultiBags, Mem: MemFull}).Run(prog); !rep.Racy() {
		t.Error("full level missed the race")
	}
}

func TestStats(t *testing.T) {
	rep := detectWith(ModeMultiBagsPlus, func(t *Task) {
		h := t.CreateFut(func(ft *Task) any { ft.Write(1); return nil })
		t.Spawn(func(c *Task) { c.Read(2) })
		t.Sync()
		t.GetFut(h)
		t.Read(1) // queries the last writer (the future body)
	})
	s := rep.Stats
	if s.Spawns != 1 || s.Creates != 1 || s.Gets != 1 {
		t.Errorf("construct counts wrong: %+v", s)
	}
	if s.Functions != 3 { // main + child + future
		t.Errorf("Functions = %d, want 3", s.Functions)
	}
	if s.Strands == 0 || s.Reach.Queries == 0 {
		t.Errorf("missing stats: %+v", s)
	}
	if s.Shadow.Reads != 2 || s.Shadow.Writes != 1 {
		t.Errorf("shadow stats wrong: %+v", s.Shadow)
	}
}
