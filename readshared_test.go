package futurerd_test

import (
	"testing"

	"futurerd"
)

// readSharedProgram builds the acceptance workload for the read-shared
// fast path: k parallel writer strands install an interleaved last-writer
// pattern over a shared range (so a later reader cannot be served by the
// owned-word filter and must query each writer), then r parallel reader
// strands each scan the whole range p times inside one construct window.
func readSharedProgram(base uint64, words, blk, k, r, p int) func(*futurerd.Task) {
	return func(t *futurerd.Task) {
		futurerd.For(t, 0, k, 1, func(t *futurerd.Task, i int) {
			for b := i * blk; b < words; b += k * blk {
				n := blk
				if b+n > words {
					n = words - b
				}
				t.WriteRange(base+uint64(b), n)
			}
		})
		for j := 0; j < r; j++ {
			t.Spawn(func(c *futurerd.Task) {
				for pass := 0; pass < p; pass++ {
					c.ReadRange(base, words)
				}
			})
		}
		t.Sync()
	}
}

// TestReadSharedRepeatedReadsQueryFree is the engine-level acceptance
// check for the read-shared fast path: repeated scans of a shared range
// at a fixed generation must add zero reachability queries beyond each
// strand's first pass — so p passes cost what one pass costs, a ≥ p×
// query reduction over the per-pass protocol.
func TestReadSharedRepeatedReadsQueryFree(t *testing.T) {
	const words, blk, k, r = 1 << 14, 64, 4, 3
	arr := futurerd.NewArray[int64](words)
	base := arr.Addr(0)
	queries := func(p int, consumers int) (uint64, uint64) {
		rep := futurerd.Detect(futurerd.Config{
			Mode: futurerd.ModeMultiBags, Mem: futurerd.MemFull, Consumers: consumers,
		}, readSharedProgram(base, words, blk, k, r, p))
		if rep.Err != nil {
			t.Fatal(rep.Err)
		}
		if rep.Racy() {
			t.Fatalf("race-free program raced: %v", rep.Races[0])
		}
		return rep.Stats.Reach.Queries, rep.Stats.Shadow.ReadSharedSkips
	}
	for _, consumers := range []int{0, 1} {
		q1, _ := queries(1, consumers)
		q4, skips := queries(4, consumers)
		if q4 != q1 {
			t.Fatalf("consumers=%d: 4 passes made %d queries, 1 pass made %d — re-reads are not free",
				consumers, q4, q1)
		}
		if want := uint64(3 * r * words); skips != want {
			t.Fatalf("consumers=%d: ReadSharedSkips = %d, want %d", consumers, skips, want)
		}
	}
}

// BenchmarkAccessHistoryReadShared times the read-shared workload shape —
// parallel writers, then parallel readers re-scanning the whole shared
// range — and reports the reachability queries per read, the metric the
// fast path exists to crush: without the read-shared skip every pass
// pays one query per writer-block boundary; with it only each strand's
// first pass does.
func BenchmarkAccessHistoryReadShared(b *testing.B) {
	const words, blk, k, r, p = 1 << 16, 64, 4, 2, 4
	arr := futurerd.NewArray[int64](words)
	base := arr.Addr(0)
	prog := readSharedProgram(base, words, blk, k, r, p)
	var queries, reads uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := futurerd.Detect(futurerd.Config{
			Mode: futurerd.ModeMultiBags, Mem: futurerd.MemFull,
		}, prog)
		if rep.Racy() {
			b.Fatal("unexpected race")
		}
		queries, reads = rep.Stats.Reach.Queries, rep.Stats.Shadow.Reads
	}
	b.ReportMetric(float64(r*p*words), "readwords/op")
	b.ReportMetric(float64(queries)/float64(reads), "queries/read")
}
