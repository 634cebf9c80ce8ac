package futurerd_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"futurerd"
)

func TestDetectRacesConvenience(t *testing.T) {
	v := futurerd.NewVar[int]()
	rep := futurerd.DetectRaces(func(tk *futurerd.Task) {
		f := futurerd.Async(tk, func(ft *futurerd.Task) int {
			v.Set(ft, 1)
			return 0
		})
		v.Set(tk, 2)
		f.Get(tk)
	})
	if !rep.Racy() {
		t.Fatal("DetectRaces missed an obvious race")
	}
	if rep.Algorithm != "multibags+" {
		t.Fatalf("Algorithm = %q", rep.Algorithm)
	}
}

func TestTypedFutureRoundTrip(t *testing.T) {
	type pair struct{ a, b int }
	futurerd.RunSeq(func(tk *futurerd.Task) {
		f := futurerd.Async(tk, func(*futurerd.Task) pair { return pair{1, 2} })
		if got := f.Get(tk); got != (pair{1, 2}) {
			t.Errorf("Get = %+v", got)
		}
	})
}

func TestFutureNilResult(t *testing.T) {
	futurerd.RunSeq(func(tk *futurerd.Task) {
		f := futurerd.Async(tk, func(*futurerd.Task) *int { return nil })
		if got := f.Get(tk); got != nil {
			t.Errorf("Get = %v, want nil", got)
		}
	})
}

func TestZeroFutureGetFails(t *testing.T) {
	rep := futurerd.DetectRaces(func(tk *futurerd.Task) {
		var f futurerd.Future[int]
		if f.Valid() {
			t.Error("zero future claims validity")
		}
		f.Get(tk)
	})
	if !errors.Is(rep.Err, futurerd.ErrFutureNotReady) {
		t.Fatalf("Err = %v, want ErrFutureNotReady", rep.Err)
	}
}

func TestArrayMatrixVar(t *testing.T) {
	arr := futurerd.NewArray[int](10)
	mat := futurerd.NewMatrix[float64](3, 4)
	cell := futurerd.NewVar[string]()
	if arr.Len() != 10 || mat.Rows() != 3 || mat.Cols() != 4 {
		t.Fatal("dimensions wrong")
	}
	// Addresses must be disjoint across containers.
	if arr.Addr(9) >= mat.Addr(0, 0) || mat.Addr(2, 3) >= cell.Addr() {
		t.Fatal("virtual address ranges overlap or are unordered")
	}
	futurerd.RunSeq(func(tk *futurerd.Task) {
		arr.Set(tk, 3, 42)
		mat.Set(tk, 1, 2, 2.5)
		cell.Set(tk, "hi")
		if arr.Get(tk, 3) != 42 || mat.Get(tk, 1, 2) != 2.5 || cell.Get(tk) != "hi" {
			t.Error("container round trip failed")
		}
	})
	if arr.Raw()[3] != 42 {
		t.Error("Raw does not alias the storage")
	}
}

func TestMatrixRowHelpers(t *testing.T) {
	m := futurerd.NewMatrix[int32](4, 8)
	rep := futurerd.Detect(futurerd.Config{
		Mode: futurerd.ModeMultiBags, Mem: futurerd.MemFull,
	}, func(tk *futurerd.Task) {
		row := m.WriteRow(tk, 1, 2, 6)
		for i := range row {
			row[i] = int32(i)
		}
		got := m.ReadRow(tk, 1, 2, 6)
		if len(got) != 4 || got[3] != 3 {
			t.Errorf("ReadRow = %v", got)
		}
	})
	if rep.Racy() {
		t.Fatal("sequential row access raced")
	}
	if rep.Stats.Shadow.Writes != 4 || rep.Stats.Shadow.Reads != 4 {
		t.Fatalf("range hooks miscounted: %+v", rep.Stats.Shadow)
	}
}

// TestRangeRace: a racy overlap between two WriteRow ranges must be
// caught at word granularity.
func TestRangeRace(t *testing.T) {
	m := futurerd.NewMatrix[int32](2, 16)
	rep := futurerd.DetectRaces(func(tk *futurerd.Task) {
		f := futurerd.Async(tk, func(ft *futurerd.Task) int {
			m.WriteRow(ft, 0, 0, 8)
			return 0
		})
		m.WriteRow(tk, 0, 4, 12) // overlaps columns 4–7
		f.Get(tk)
	})
	if !rep.Racy() {
		t.Fatal("overlapping range race missed")
	}
	// Every reported race must be inside the overlap.
	for _, r := range rep.Races {
		col := r.Addr - m.Addr(0, 0)
		if col < 4 || col > 7 {
			t.Errorf("race outside overlap at column %d", col)
		}
	}
}

func TestDetectDAG(t *testing.T) {
	dag, err := futurerd.DetectDAG(func(tk *futurerd.Task) {
		f := futurerd.Async(tk, func(*futurerd.Task) int { return 1 })
		tk.Spawn(func(*futurerd.Task) {})
		tk.Sync()
		f.Get(tk)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"digraph", "create", "get", "spawn", "join"} {
		if !strings.Contains(dag, frag) {
			t.Errorf("DOT output missing %q", frag)
		}
	}
}

func TestRunParallelMatchesSeq(t *testing.T) {
	// The same program must produce identical results under RunSeq and
	// Run with several worker counts.
	compute := func(run func(func(*futurerd.Task))) int64 {
		arr := futurerd.NewArray[int64](256)
		run(func(tk *futurerd.Task) {
			var rec func(t *futurerd.Task, lo, hi int)
			rec = func(t *futurerd.Task, lo, hi int) {
				if hi-lo <= 16 {
					for i := lo; i < hi; i++ {
						arr.Set(t, i, int64(i*i))
					}
					return
				}
				mid := (lo + hi) / 2
				t.Spawn(func(c *futurerd.Task) { rec(c, lo, mid) })
				rec(t, mid, hi)
				t.Sync()
			}
			rec(tk, 0, arr.Len())
		})
		var sum int64
		for _, v := range arr.Raw() {
			sum += v
		}
		return sum
	}
	want := compute(futurerd.RunSeq)
	for _, w := range []int{1, 2, 4} {
		got := compute(func(root func(*futurerd.Task)) { futurerd.Run(w, root) })
		if got != want {
			t.Errorf("workers=%d: %d, want %d", w, got, want)
		}
	}
}

func TestForCoversRange(t *testing.T) {
	arr := futurerd.NewArray[int32](1000)
	rep := futurerd.Detect(futurerd.Config{
		Mode: futurerd.ModeMultiBags, Mem: futurerd.MemFull,
	}, func(tk *futurerd.Task) {
		futurerd.For(tk, 0, arr.Len(), 16, func(t *futurerd.Task, i int) {
			arr.Set(t, i, int32(i))
		})
	})
	if rep.Racy() {
		t.Fatalf("disjoint parallel-for raced: %v", rep.Races[0])
	}
	for i, v := range arr.Raw() {
		if v != int32(i) {
			t.Fatalf("iteration %d not executed (got %d)", i, v)
		}
	}
	// Overlapping iterations must race.
	rep = futurerd.DetectRaces(func(tk *futurerd.Task) {
		futurerd.For(tk, 0, 100, 4, func(t *futurerd.Task, i int) {
			arr.Set(t, 0, int32(i)) // all iterations write slot 0
		})
	})
	if !rep.Racy() {
		t.Fatal("overlapping parallel-for not flagged")
	}
	// And it must run correctly in parallel.
	clear(arr.Raw())
	futurerd.Run(4, func(tk *futurerd.Task) {
		futurerd.For(tk, 0, arr.Len(), 16, func(t *futurerd.Task, i int) {
			arr.Set(t, i, int32(i+1))
		})
	})
	for i, v := range arr.Raw() {
		if v != int32(i+1) {
			t.Fatalf("parallel For missed iteration %d", i)
		}
	}
}

func TestTraceRoundTripPublicAPI(t *testing.T) {
	v := futurerd.NewVar[int]()
	prog := func(tk *futurerd.Task) {
		f := futurerd.Async(tk, func(ft *futurerd.Task) int { v.Set(ft, 1); return 0 })
		v.Set(tk, 2)
		f.Get(tk)
	}
	var buf bytes.Buffer
	if err := futurerd.RecordTrace(&buf, prog); err != nil {
		t.Fatal(err)
	}
	rep, err := futurerd.ReplayTrace(&buf, futurerd.Config{
		Mode: futurerd.ModeMultiBags, Mem: futurerd.MemFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Racy() {
		t.Fatal("replayed trace lost the race")
	}
}

// TestTraceLabelMidBatch: a strand reads two arrays in interleaved
// streams and sets its label halfway. The label does not seal the open
// batch, so the recorded trace must keep that batch whole: replay appends
// the recorded ops as they are, and its Stats equal the direct run's.
func TestTraceLabelMidBatch(t *testing.T) {
	const n = 64
	a, b := futurerd.NewArray[int](n), futurerd.NewArray[int](n)
	prog := func(tk *futurerd.Task) {
		for i := 0; i < n; i++ {
			if i == n/2 {
				tk.Label("second half")
			}
			a.Get(tk, i)
			b.Get(tk, i)
		}
	}
	cfg := futurerd.Config{Mode: futurerd.ModeMultiBagsPlus, Mem: futurerd.MemFull}
	direct := futurerd.Detect(cfg, prog)
	raw, err := futurerd.RecordTraceBytes(prog)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := futurerd.ReplayTraceBytes(raw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Stats, replayed.Stats) {
		t.Fatalf("stats differ:\ndirect %+v\nreplay %+v", direct.Stats, replayed.Stats)
	}
}

func TestModeStrings(t *testing.T) {
	cases := map[futurerd.Mode]string{
		futurerd.ModeNone:          "none",
		futurerd.ModeSPBags:        "spbags",
		futurerd.ModeMultiBags:     "multibags",
		futurerd.ModeMultiBagsPlus: "multibags+",
		futurerd.ModeOracle:        "oracle",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
	lvls := map[futurerd.MemLevel]string{
		futurerd.MemOff:   "reachability",
		futurerd.MemInstr: "instrumentation",
		futurerd.MemFull:  "full",
	}
	for l, want := range lvls {
		if l.String() != want {
			t.Errorf("MemLevel %d = %q, want %q", int(l), l.String(), want)
		}
	}
}

func TestOnRaceCallback(t *testing.T) {
	var seen []futurerd.Race
	futurerd.Detect(futurerd.Config{
		Mode: futurerd.ModeMultiBags,
		Mem:  futurerd.MemFull,
		OnRace: func(r futurerd.Race) {
			seen = append(seen, r)
		},
	}, func(tk *futurerd.Task) {
		v := futurerd.NewVar[int]()
		f := futurerd.Async(tk, func(ft *futurerd.Task) int { v.Set(ft, 1); return 0 })
		v.Set(tk, 2)
		f.Get(tk)
	})
	if len(seen) != 1 {
		t.Fatalf("OnRace fired %d times, want 1", len(seen))
	}
}
