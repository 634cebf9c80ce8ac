package futurerd_test

// This file regenerates the paper's evaluation as Go benchmarks: one
// benchmark family per table/figure of §6. Run with
//
//	go test -bench=. -benchmem
//
// Each iteration performs one complete workload run in the named
// configuration, so ns/op is directly the configuration's wall time;
// compare the Fig6/Fig7/Fig8 families against the rendered tables from
// cmd/futurerd-bench (which also prints overhead ratios and geomeans).
// Sizes here are workloads.SizeQuick to keep -bench=. tractable; the
// shapes match the full-size harness.

import (
	"fmt"
	"testing"

	"futurerd"
	"futurerd/internal/detect"
	"futurerd/internal/workloads"
)

// configs are the four evaluation configurations of the paper (§6).
// The baseline entry disables detection entirely; the other three use
// the figure's algorithm with increasing memory-pipeline levels.
var configs = []struct {
	name     string
	baseline bool
	mem      futurerd.MemLevel
}{
	{"baseline", true, futurerd.MemOff},
	{"reachability", false, futurerd.MemOff},
	{"instrumentation", false, futurerd.MemInstr},
	{"full", false, futurerd.MemFull},
}

func runConfig(b *testing.B, ins workloads.Instance, mode futurerd.Mode, mem futurerd.MemLevel) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if mode == futurerd.ModeNone {
			futurerd.RunSeq(ins.Run)
			continue
		}
		rep := futurerd.Detect(futurerd.Config{Mode: mode, Mem: mem}, ins.Run)
		if rep.Err != nil {
			b.Fatal(rep.Err)
		}
		if rep.Racy() {
			b.Fatalf("%s: unexpected race: %v", ins.Name(), rep.Races[0])
		}
	}
}

// figureBench runs the 6-benchmark × 4-configuration grid of Figure 6 or 7.
func figureBench(b *testing.B, mode futurerd.Mode, general bool) {
	for _, wb := range workloads.All(workloads.SizeQuick) {
		mk := wb.Structured
		if general && wb.General != nil {
			mk = wb.General
		}
		for _, cf := range configs {
			m := mode
			if cf.baseline {
				m = futurerd.ModeNone
			}
			b.Run(fmt.Sprintf("%s/%s", wb.Name, cf.name), func(b *testing.B) {
				ins := mk()
				b.ResetTimer()
				runConfig(b, ins, m, cf.mem)
			})
		}
	}
}

// BenchmarkFig6 regenerates Figure 6: structured-future variants under
// MultiBags, four configurations each.
func BenchmarkFig6(b *testing.B) {
	figureBench(b, futurerd.ModeMultiBags, false)
}

// BenchmarkFig7 regenerates Figure 7: general-future variants under
// MultiBags+.
func BenchmarkFig7(b *testing.B) {
	figureBench(b, futurerd.ModeMultiBagsPlus, true)
}

// BenchmarkFig8 regenerates Figure 8: reachability-only overhead of
// MultiBags vs MultiBags+ on structured programs as the base case shrinks
// (the future count k grows).
func BenchmarkFig8(b *testing.B) {
	rows := []struct {
		name string
		mk   func() workloads.Instance
	}{
		{"lcs/B=64", func() workloads.Instance {
			return workloads.NewLCS(256, 64, workloads.StructuredFutures, 1)
		}},
		{"lcs/B=32", func() workloads.Instance {
			return workloads.NewLCS(256, 32, workloads.StructuredFutures, 1)
		}},
		{"lcs/B=16", func() workloads.Instance {
			return workloads.NewLCS(256, 16, workloads.StructuredFutures, 1)
		}},
		{"sw/B=8", func() workloads.Instance {
			return workloads.NewSW(64, 8, workloads.StructuredFutures, 2)
		}},
		{"mm/B=8", func() workloads.Instance {
			return workloads.NewMM(64, 8, workloads.StructuredFutures, 3)
		}},
	}
	algos := []struct {
		name string
		mode futurerd.Mode
	}{
		{"multibags", futurerd.ModeMultiBags},
		{"multibags+", futurerd.ModeMultiBagsPlus},
	}
	for _, r := range rows {
		for _, a := range algos {
			b.Run(fmt.Sprintf("%s/%s", r.name, a.name), func(b *testing.B) {
				ins := r.mk()
				b.ResetTimer()
				runConfig(b, ins, a.mode, futurerd.MemOff)
			})
		}
	}
}

// BenchmarkReachabilityOps isolates the reachability data structures: the
// cost of maintaining bags (MultiBags) and bags+R (MultiBags+) per
// parallel construct, on a construct-dense future chain with no memory
// traffic. This is the microbenchmark behind the paper's claim that
// "operations on the disjoint-sets data structure are very efficient".
func BenchmarkReachabilityOps(b *testing.B) {
	chain := func(n int) func(*futurerd.Task) {
		return func(t *futurerd.Task) {
			prev := futurerd.Async(t, func(*futurerd.Task) int { return 0 })
			for i := 1; i < n; i++ {
				p := prev
				prev = futurerd.Async(t, func(ft *futurerd.Task) int {
					return p.Get(ft) + 1
				})
			}
			prev.Get(t)
		}
	}
	const n = 2000
	for _, a := range []struct {
		name string
		mode futurerd.Mode
	}{
		{"multibags", futurerd.ModeMultiBags},
		{"multibags+", futurerd.ModeMultiBagsPlus},
		{"oracle", futurerd.ModeOracle},
	} {
		b.Run(a.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := futurerd.Detect(futurerd.Config{Mode: a.mode}, chain(n))
				if rep.Err != nil {
					b.Fatal(rep.Err)
				}
			}
			b.ReportMetric(float64(n), "futures/op")
		})
	}
}

// BenchmarkAccessHistory isolates the §3 access-history protocol: per
// write-then-read pair cost under full detection with a trivial dag.
func BenchmarkAccessHistory(b *testing.B) {
	arr := futurerd.NewArray[int64](4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := futurerd.Detect(futurerd.Config{
			Mode: futurerd.ModeMultiBags, Mem: futurerd.MemFull,
		}, func(t *futurerd.Task) {
			for j := 0; j < arr.Len(); j++ {
				arr.Set(t, j, int64(j))
				arr.Get(t, j)
			}
		})
		if rep.Racy() {
			b.Fatal("unexpected race")
		}
	}
}

// BenchmarkAccessHistoryRange isolates the bulk memory pipeline: one
// Detect run performs bulk ReadRange/WriteRange traffic in the named
// pattern, so ns/op tracks the per-word cost of the shadow fast paths
// (page-cached segment loops, epoch ownership skips, memoized verdicts).
func BenchmarkAccessHistoryRange(b *testing.B) {
	const words = 1 << 16 // 16 shadow pages
	run := func(b *testing.B, root func(*futurerd.Task)) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			rep := futurerd.Detect(futurerd.Config{
				Mode: futurerd.ModeMultiBags, Mem: futurerd.MemFull,
			}, root)
			if rep.Racy() {
				b.Fatal("unexpected race")
			}
		}
	}
	b.Run("seqscan", func(b *testing.B) {
		// One bulk write then one bulk read over a fresh region.
		arr := futurerd.NewArray[int64](words)
		base := arr.Addr(0)
		b.ResetTimer()
		run(b, func(t *futurerd.Task) {
			t.WriteRange(base, words)
			t.ReadRange(base, words)
		})
		b.ReportMetric(float64(2*words), "words/op")
	})
	b.Run("strided", func(b *testing.B) {
		// Row-at-a-time traffic with a stride, the wavefront/matrix shape.
		m := futurerd.NewMatrix[int64](64, 1024)
		b.ResetTimer()
		run(b, func(t *futurerd.Task) {
			for i := 0; i < m.Rows(); i++ {
				t.WriteRange(m.Addr(i, 0), m.Cols())
			}
		})
		b.ReportMetric(float64(64*1024), "words/op")
	})
	// gapscan/consumers=N: page-gapped blocks — 64 non-coalescing ops over
	// ascending, page-disjoint regions — checked by a consumer pool. The
	// single sealed batch splits at the steal granule (default 4 pages:
	// 4 chunks here), so these rows curve with chunk-level stealing rather
	// than batch-level concurrency. stolen_chunks is a scheduling outcome
	// (maximum across iterations), deliberately not benchtrend-gated.
	const blocks, blockWords, blockStride = 64, 1024, 1024 + 4096
	garr := futurerd.NewArray[int64](blocks * blockStride)
	gbase := garr.Addr(0)
	for _, consumers := range []int{0, 2, 4} {
		b.Run(fmt.Sprintf("gapscan/consumers=%d", consumers), func(b *testing.B) {
			var stolen uint64
			for i := 0; i < b.N; i++ {
				rep := futurerd.Detect(futurerd.Config{
					Mode: futurerd.ModeMultiBags, Mem: futurerd.MemFull,
					Consumers: consumers,
				}, func(t *futurerd.Task) {
					for blk := 0; blk < blocks; blk++ {
						t.WriteRange(gbase+uint64(blk*blockStride), blockWords)
					}
				})
				if rep.Err != nil {
					b.Fatal(rep.Err)
				}
				if rep.Racy() {
					b.Fatal("unexpected race")
				}
				if v := rep.Stats.Event.StolenChunks; v > stolen {
					stolen = v
				}
			}
			b.ReportMetric(float64(blocks*blockWords), "words/op")
			b.ReportMetric(float64(stolen), "stolen_chunks")
		})
	}
	b.Run("pagecross", func(b *testing.B) {
		// Many short ranges straddling page boundaries: the worst case for
		// the segment splitter and the last-page cache. The arena is
		// over-allocated and the base rounded up to a page boundary — the
		// global address allocator gives no alignment guarantee, and an
		// unaligned base would keep the short ranges inside one page.
		const pageWords = 1 << 12
		arr := futurerd.NewArray[int64](words + pageWords)
		base := (arr.Addr(0) + pageWords - 1) &^ uint64(pageWords-1)
		b.ResetTimer()
		run(b, func(t *futurerd.Task) {
			for pg := uint64(1); pg < words/pageWords; pg++ {
				t.WriteRange(base+pg*pageWords-32, 64)
			}
		})
		b.ReportMetric(float64((words/pageWords-1)*64), "words/op")
	})
	b.Run("ownedrewrite", func(b *testing.B) {
		// The same strand rewriting its own region: every pass after the
		// first resolves entirely on the ownership fast path.
		arr := futurerd.NewArray[int64](words)
		base := arr.Addr(0)
		const passes = 8
		b.ResetTimer()
		run(b, func(t *futurerd.Task) {
			for p := 0; p < passes; p++ {
				t.WriteRange(base, words)
			}
		})
		b.ReportMetric(float64(passes*words), "words/op")
	})
	b.Run("inflated", func(b *testing.B) {
		// k parallel readers per word, then one ordered writer over the
		// range: every word's reader list inflates, and the write checks
		// each list in full. queries/op stays near k per write batch
		// because verdicts are cached per batch, not per word.
		const k, iwords = 16, 1 << 12
		arr := futurerd.NewArray[int64](iwords)
		base := arr.Addr(0)
		var queries uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep := futurerd.Detect(futurerd.Config{
				Mode: futurerd.ModeMultiBags, Mem: futurerd.MemFull,
			}, func(t *futurerd.Task) {
				for r := 0; r < k; r++ {
					t.Spawn(func(c *futurerd.Task) { c.ReadRange(base, iwords) })
				}
				t.Sync()
				t.WriteRange(base, iwords)
			})
			if rep.Racy() {
				b.Fatal("unexpected race")
			}
			queries = rep.Stats.Reach.Queries
		}
		b.ReportMetric(float64((k+1)*iwords), "words/op")
		b.ReportMetric(float64(queries), "queries/op")
	})
}

// BenchmarkBatchCap sweeps the event-batch op cap (Config.BatchOps)
// under a non-coalescible single-word access storm — the only traffic
// shape the cap governs, since coalescing scans stay one op — with the
// asynchronous back-end consuming mid-window flushes. cap=0 is the
// shipped default (event.MaxOps).
func BenchmarkBatchCap(b *testing.B) {
	const n = 200_000
	prog := func(t *futurerd.Task) {
		t.Spawn(func(c *futurerd.Task) {
			for i := 0; i < n; i++ {
				c.Write(uint64(1 + 2*i)) // stride 2: never coalesces
			}
		})
		t.Sync()
		for i := 0; i < n; i++ {
			t.Read(uint64(1 + 2*i))
		}
	}
	for _, cap := range []int{0, 1024, 4096, 16384, 65536} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := futurerd.Detect(futurerd.Config{
					Mode: futurerd.ModeMultiBags, Mem: futurerd.MemFull, Consumers: 1,
					BatchOps: cap,
				}, prog)
				if rep.Err != nil {
					b.Fatal(rep.Err)
				}
				if rep.Racy() {
					b.Fatal("unexpected race")
				}
			}
			b.ReportMetric(float64(2*n), "words/op")
		})
	}
}

// BenchmarkRecord measures trace-recording throughput: one workload run
// through the v2 recorder (coalescing batcher + delta encoding + DEFLATE
// block framing) per iteration.
func BenchmarkRecord(b *testing.B) {
	ins := workloads.NewLCS(256, 16, workloads.StructuredFutures, 1)
	var n int
	for i := 0; i < b.N; i++ {
		raw, err := futurerd.RecordTraceBytes(ins.Run)
		if err != nil {
			b.Fatal(err)
		}
		n = len(raw)
	}
	b.ReportMetric(float64(n), "trace-bytes")
}

// BenchmarkReplay measures trace-replay throughput — the offline
// detection path: decode a recorded v2 stream and drive it through full
// MultiBags+ detection, inline and on the scheduled pool of one consumer.
func BenchmarkReplay(b *testing.B) {
	ins := workloads.NewLCS(256, 16, workloads.StructuredFutures, 1)
	raw, err := futurerd.RecordTraceBytes(ins.Run)
	if err != nil {
		b.Fatal(err)
	}
	for _, consumers := range []int{0, 1} {
		b.Run(fmt.Sprintf("lcs/consumers=%d", consumers), func(b *testing.B) {
			var words uint64
			for i := 0; i < b.N; i++ {
				rep, err := futurerd.ReplayTraceBytes(raw, futurerd.Config{
					Mode: futurerd.ModeMultiBagsPlus, Mem: futurerd.MemFull,
					Consumers: consumers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Err != nil {
					b.Fatal(rep.Err)
				}
				words = rep.Stats.Shadow.Reads + rep.Stats.Shadow.Writes
			}
			b.SetBytes(int64(len(raw)))
			b.ReportMetric(float64(words), "words/op")
		})
	}
}

// BenchmarkParallelSpeedup measures the work-stealing scheduler against
// sequential execution on the lcs wavefront, documenting that the same
// programs the detector checks actually scale.
func BenchmarkParallelSpeedup(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ins := workloads.NewLCS(512, 32, workloads.StructuredFutures, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				futurerd.Run(workers, ins.Run)
			}
		})
	}
}

// BenchmarkConsumerScaling drives two leaf fan-out shapes through the
// multi-consumer detection back-end as a scaling curve over the pool
// width: fanout — 64 leaves each touching their own multi-page region
// (batch-level concurrency) — and skewed — each leaf touching two
// distant regions, so every sealed batch splits into footprint-disjoint
// chunks and the rows exercise chunk-level stealing. On real multicore
// hardware the consumers>1 rows should shrink toward the batch-check
// critical path; on the 1-CPU dev container wall time is flat, so the
// reported metrics carry the proof instead: indep_batches
// (deterministic, benchtrend-gated) counts batches independent of their
// predecessor, maxwindow is the peak number of flights dispatched
// concurrently, and overlap_windows / stolen_chunks are the overlapping
// scheduler's outcome counters (timing-dependent; reported as the
// maximum across iterations, not gated).
func BenchmarkConsumerScaling(b *testing.B) {
	const tasks, words = 64, 2*4096 + 512 // ~2.1 pages per leaf, disjoint
	fanout := func(t *futurerd.Task) {
		for i := 0; i < tasks; i++ {
			base := uint64(1 + i*4*4096)
			t.Spawn(func(c *futurerd.Task) {
				c.WriteRange(base, words)
				c.ReadRange(base, words)
			})
		}
		t.Sync()
	}
	skewed := func(t *futurerd.Task) {
		for i := 0; i < tasks; i++ {
			lo := uint64(1 + i*4*4096)
			hi := uint64(1<<24 + i*4*4096)
			t.Spawn(func(c *futurerd.Task) {
				c.WriteRange(lo, words)
				c.WriteRange(hi, words) // 4096 pages away: a stealable chunk
			})
		}
		t.Sync()
	}
	shapes := []struct {
		name  string
		prog  func(*futurerd.Task)
		steal int // chunk granule; 0 keeps the shipped default
	}{
		{"fanout", fanout, 0},
		{"skewed", skewed, 4096},
	}
	for _, sh := range shapes {
		for _, consumers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/consumers=%d", sh.name, consumers), func(b *testing.B) {
				maxWin := 0
				var indep, overlapped, stolen uint64
				for i := 0; i < b.N; i++ {
					e := detect.NewEngine(detect.Config{
						Mode: futurerd.ModeMultiBagsPlus, Mem: futurerd.MemFull,
						Consumers: consumers, StealChunkWords: sh.steal,
					})
					rep := e.Run(sh.prog)
					if rep.Err != nil {
						b.Fatal(rep.Err)
					}
					if rep.Racy() {
						b.Fatalf("fan-out raced: %v", rep.Races[0])
					}
					indep = rep.Stats.Event.IndependentBatches
					if w := e.MaxDispatchedWindow(); w > maxWin {
						maxWin = w
					}
					if v := rep.Stats.Event.OverlappedWindows; v > overlapped {
						overlapped = v
					}
					if v := rep.Stats.Event.StolenChunks; v > stolen {
						stolen = v
					}
				}
				if indep == 0 {
					b.Fatal("fan-out produced no independent batches")
				}
				b.ReportMetric(float64(indep), "indep_batches")
				b.ReportMetric(float64(maxWin), "maxwindow")
				b.ReportMetric(float64(overlapped), "overlap_windows")
				b.ReportMetric(float64(stolen), "stolen_chunks")
			})
		}
	}
}

// BenchmarkStealChunkWords sweeps the steal-chunk granule
// (Config.StealChunkWords) over a fan-out whose leaves each write 32
// page-gapped 1024-word blocks, so the granule alone decides how many
// chunks a sealed batch cuts into: 2048 words => 16 chunks per batch,
// 4096 => 8, the shipped default (4 pages, chunk=0) => 2, 65536 => no
// split. Smaller granules buy finer stealing at the price of per-chunk
// claim and delivery overhead; larger ones converge to whole-batch
// dispatch. stolen_chunks is the maximum across iterations. On the
// 1-CPU dev container the sweep is flat within noise (~11 ms across all
// granules, 2026-08), so the shipped default stays at 4 pages — coarse
// enough that claim overhead never shows, fine enough that a two-region
// batch still splits.
func BenchmarkStealChunkWords(b *testing.B) {
	const leaves, blocks, blockWords, blockStride = 16, 32, 1024, 1024 + 4096
	const leafSpan = blocks * blockStride
	prog := func(t *futurerd.Task) {
		for i := 0; i < leaves; i++ {
			base := uint64(1 + i*leafSpan)
			t.Spawn(func(c *futurerd.Task) {
				for blk := 0; blk < blocks; blk++ {
					c.WriteRange(base+uint64(blk*blockStride), blockWords)
				}
			})
		}
		t.Sync()
	}
	for _, chunk := range []int{0, 2048, 4096, 16384, 65536} {
		b.Run(fmt.Sprintf("chunk=%d", chunk), func(b *testing.B) {
			var stolen uint64
			for i := 0; i < b.N; i++ {
				rep := futurerd.Detect(futurerd.Config{
					Mode: futurerd.ModeMultiBags, Mem: futurerd.MemFull,
					Consumers: 2, StealChunkWords: chunk,
				}, prog)
				if rep.Err != nil {
					b.Fatal(rep.Err)
				}
				if rep.Racy() {
					b.Fatal("unexpected race")
				}
				if v := rep.Stats.Event.StolenChunks; v > stolen {
					stolen = v
				}
			}
			b.ReportMetric(float64(leaves*blocks*blockWords), "words/op")
			b.ReportMetric(float64(stolen), "stolen_chunks")
		})
	}
}
