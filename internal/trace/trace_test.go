package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"

	"futurerd/internal/detect"
	"futurerd/internal/event"
	"futurerd/internal/progen"
)

// prog is a small future program with one race (addr 5) and one ordered
// pair (addr 6), plus labels on the racing bodies.
func prog(t *detect.Task) {
	t.Label("main")
	h := t.CreateFut(func(ft *detect.Task) any {
		ft.Label("producer")
		ft.Write(5)
		ft.Write(6)
		return 7
	})
	t.Write(5) // races with the future
	t.GetFut(h)
	t.Read(6) // ordered via the get
	t.Spawn(func(c *detect.Task) { c.Read(6) })
	t.Sync()
}

func TestRecordReplayRoundTrip(t *testing.T) {
	raw, err := RecordBytes(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 || !bytes.HasPrefix(raw, magicV2) {
		t.Fatal("bad stream framing")
	}
	rep, err := ReplayBytes(raw, detect.Config{
		Mode: detect.ModeMultiBagsPlus, Mem: detect.MemFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Races) != 1 || rep.Races[0].Addr != 5 {
		t.Fatalf("replay races = %v, want one race on addr 5", rep.Races)
	}
}

// TestReplayCarriesLabels: the v2 stream records Task.Label calls, so a
// replayed report names the racing strands exactly like a direct run.
func TestReplayCarriesLabels(t *testing.T) {
	cfg := detect.Config{Mode: detect.ModeMultiBagsPlus, Mem: detect.MemFull}
	direct := detect.NewEngine(cfg).Run(prog)
	raw, err := RecordBytes(prog)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := ReplayBytes(raw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Races) != 1 || len(replayed.Races) != 1 {
		t.Fatalf("race counts: direct %d, replay %d", len(direct.Races), len(replayed.Races))
	}
	d, r := direct.Races[0], replayed.Races[0]
	if d.PrevLabel == "" || d.CurrLabel == "" {
		t.Fatalf("direct run lost its labels: %+v", d)
	}
	if d != r {
		t.Fatalf("replayed race differs:\ndirect %+v\nreplay %+v", d, r)
	}
}

// longRun's shape: writes before its label and after it, and the loop
// index of the first write after the first MaxOps flush.
const (
	longRunPre  = 100
	longRunN    = 40_000
	longRunRacy = event.MaxOps - longRunPre
)

// longRun is one strand issuing far more non-coalescing single-word
// writes than event.MaxOps — 40k one-byte events, past the 32 KiB block
// target — between two spawned children, so replay's run buffer, the
// MaxOps flush and a block boundary all fall inside one access run. The
// write just after the first flush races with the first child; the
// second child races with the continuation. The label between the loops
// does not seal, so its batch holds the pre-loop writes too: that first
// flush falls inside a decoded run only in midRunFlushTrace.
func longRun(t *detect.Task) {
	const pre, n, racy = longRunPre, longRunN, longRunRacy
	t.Spawn(func(c *detect.Task) { c.Write(2 * racy) })
	for i := 0; i < pre; i++ {
		t.Write(uint64(1<<30 + 2*i))
	}
	t.Label("long run")
	for i := 0; i < n; i++ {
		t.Write(uint64(2 * i))
	}
	t.Spawn(func(c *detect.Task) { c.Write(1<<21 + 1) })
	t.Read(1<<21 + 1)
	t.Sync()
}

// blockCount walks a v2 stream's block framing and returns the number of
// data blocks before the terminator.
func blockCount(t testing.TB, raw []byte) int {
	t.Helper()
	b := raw[len(magicV2):]
	for n := 0; ; n++ {
		compLen, k := binary.Uvarint(b)
		if k <= 0 {
			t.Fatal("bad block header")
		}
		if compLen == 0 {
			return n
		}
		_, m := binary.Uvarint(b[k:])
		b = b[k+m+4+int(compLen):]
	}
}

// TestReplayMatchesDirectDetection is the package's core guarantee: for
// random programs and for one long access run, detecting a replayed
// trace gives exactly the same report — every race and every counter,
// batch boundaries included — as detecting the original program, on
// both pipelines.
func TestReplayMatchesDirectDetection(t *testing.T) {
	raw, err := RecordBytes(longRun)
	if err != nil {
		t.Fatal(err)
	}
	if n := blockCount(t, raw); n < 2 {
		t.Fatalf("longRun recorded %d block(s); it must span a block boundary", n)
	}
	for _, consumers := range []int{0, 1} {
		cfg := detect.Config{Mode: detect.ModeMultiBagsPlus, Mem: detect.MemFull, Consumers: consumers}
		check := func(name string, run func(*detect.Task)) *detect.Report {
			t.Helper()
			raw, err := RecordBytes(run)
			if err != nil {
				t.Fatal(err)
			}
			direct := detect.NewEngine(cfg).Run(run)
			replayed, err := ReplayBytes(raw, cfg)
			if err != nil {
				t.Fatalf("%s consumers=%d: %v", name, consumers, err)
			}
			if !reflect.DeepEqual(direct.Races, replayed.Races) {
				t.Fatalf("%s consumers=%d: races differ:\ndirect %v\nreplay %v",
					name, consumers, direct.Races, replayed.Races)
			}
			if !reflect.DeepEqual(direct.Stats, replayed.Stats) {
				t.Fatalf("%s consumers=%d: stats differ:\ndirect %+v\nreplay %+v",
					name, consumers, direct.Stats, replayed.Stats)
			}
			return replayed
		}
		rep := check("longRun", longRun)
		if len(rep.Races) != 2 || rep.Stats.Event.Batches <= 9 {
			t.Fatalf("longRun consumers=%d: %d races over %d batches, want 2 races over more than 9 batches",
				consumers, len(rep.Races), rep.Stats.Event.Batches)
		}
		for _, dialect := range []progen.Dialect{progen.Structured, progen.General} {
			for seed := uint64(0); seed < 150; seed++ {
				p := progen.Generate(seed, progen.Options{Dialect: dialect})
				check(fmt.Sprintf("seed %d [%s]", seed, dialect), p.Run)
			}
		}
	}
}

// midRunFlushTrace hand-encodes longRun with its label event after the
// pre-loop writes instead of before them, in two blocks split inside the
// main loop. The label ends a decoded run 100 ops into the open batch,
// so the first MaxOps flush falls 3996 ops into the next run, mid-run
// (the run buffer holds 256 ops). Every access is an escape against
// base 0, the end of the kind's previous access.
func midRunFlushTrace(t *testing.T) []byte {
	t.Helper()
	const pre, n, racy = longRunPre, longRunN, longRunRacy
	var raw []byte
	var end [2]uint64 // per kind: end of the previous access
	access := func(k event.Kind, addr uint64) {
		raw = append(raw, v2Read+byte(k))
		raw = appendEscape(raw, zigzag(int64(addr-end[k])), 0)
		end[k] = addr + 1
	}
	var out bytes.Buffer
	out.Write(magicV2)
	raw = append(raw, v2Spawn)
	access(event.Write, 2*racy)
	raw = append(raw, v2TaskEnd)
	for i := 0; i < pre; i++ {
		access(event.Write, uint64(1<<30+2*i))
	}
	raw = append(raw, v2Label, byte(len("long run")))
	raw = append(raw, "long run"...)
	for i := 0; i < n; i++ {
		if i == n/2 {
			out.Write(encodeTestBlock(t, raw))
			raw = raw[:0]
		}
		access(event.Write, uint64(2*i))
	}
	raw = append(raw, v2Spawn)
	access(event.Write, 1<<21+1)
	raw = append(raw, v2TaskEnd)
	access(event.Read, 1<<21+1)
	raw = append(raw, v2Sync)
	out.Write(encodeTestBlock(t, raw))
	out.WriteByte(0)
	return out.Bytes()
}

// TestReplayFlushInsideRun: where a label ends a decoded run without
// sealing, a MaxOps flush falls inside the next run, and the ops after it
// must still carry the run's strand. The replay equals direct detection
// of longRun, whose ops and batches are the same: the write just after
// the flush races with the first child.
func TestReplayFlushInsideRun(t *testing.T) {
	raw := midRunFlushTrace(t)
	for _, consumers := range []int{0, 1} {
		cfg := detect.Config{Mode: detect.ModeMultiBagsPlus, Mem: detect.MemFull, Consumers: consumers}
		direct := detect.NewEngine(cfg).Run(longRun)
		replayed, err := ReplayBytes(raw, cfg)
		if err != nil {
			t.Fatalf("consumers=%d: %v", consumers, err)
		}
		if len(replayed.Races) != 2 || !reflect.DeepEqual(direct.Races, replayed.Races) {
			t.Fatalf("consumers=%d: races differ:\ndirect %v\nreplay %v", consumers, direct.Races, replayed.Races)
		}
		if !reflect.DeepEqual(direct.Stats, replayed.Stats) {
			t.Fatalf("consumers=%d: stats differ:\ndirect %+v\nreplay %+v", consumers, direct.Stats, replayed.Stats)
		}
	}
}

// TestReplayUnderDifferentAlgorithms: one recording, many detectors —
// the point of offline traces.
func TestReplayUnderDifferentAlgorithms(t *testing.T) {
	p := progen.Generate(42, progen.Options{Dialect: progen.Structured})
	raw, err := RecordBytes(p.Run)
	if err != nil {
		t.Fatal(err)
	}
	want := -1
	for _, mode := range []detect.Mode{
		detect.ModeMultiBags, detect.ModeMultiBagsPlus, detect.ModeOracle,
	} {
		rep, err := ReplayBytes(raw, detect.Config{Mode: mode, Mem: detect.MemFull})
		if err != nil {
			t.Fatal(err)
		}
		if want == -1 {
			want = len(rep.Races)
		} else if len(rep.Races) != want {
			t.Fatalf("%v found %d races, others found %d", mode, len(rep.Races), want)
		}
	}
}

func TestRecordDeterministic(t *testing.T) {
	a, err := RecordBytes(prog)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RecordBytes(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("recording is not deterministic")
	}
}

func TestReplayRejectsGarbage(t *testing.T) {
	// Streams rejected at the magic: Replay and Stat fail with
	// ErrBadTrace, and ReplayRecover reports the empty prefix with the
	// same diagnosis. A stream of a retired format (v1, or v2 with its
	// single delta base) is rejected by name.
	for _, tc := range []struct {
		name, raw, reason string
	}{
		{"garbage", "not a trace", "bad magic"},
		{"v1", "FUTRD1\n\x01\x03\x08", "format v1 is no longer read; re-record the trace"},
		{"v2", "FUTRD2\n\x01\x03\x08", "format v2 is no longer read; re-record the trace"},
	} {
		cfg := detect.Config{Mode: detect.ModeOracle}
		if _, err := ReplayBytes([]byte(tc.raw), cfg); !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), tc.reason) {
			t.Fatalf("%s: Replay err = %v, want ErrBadTrace with %q", tc.name, err, tc.reason)
		}
		rep, err := ReplayRecover(strings.NewReader(tc.raw), cfg, Limits{})
		if err != nil {
			t.Fatalf("%s: ReplayRecover: %v", tc.name, err)
		}
		if ts := rep.Stats.Trace; !ts.Truncated || !strings.Contains(ts.Reason, tc.reason) {
			t.Fatalf("%s: ReplayRecover trace stats %+v, want a cut with %q", tc.name, ts, tc.reason)
		}
		if _, err := Stat(strings.NewReader(tc.raw)); !errors.Is(err, ErrBadTrace) {
			t.Fatalf("%s: Stat err = %v, want ErrBadTrace", tc.name, err)
		}
	}
	// Valid magic, truncated body.
	raw, _ := RecordBytes(prog)
	if _, err := ReplayBytes(raw[:len(raw)-3], detect.Config{Mode: detect.ModeOracle}); err == nil {
		t.Fatal("truncated stream accepted")
	}
	// Terminator block without the events that close open tasks.
	bad := append(append([]byte{}, magicV2...), 0)
	bad[len(magicV2)-3] = 'X'
	if _, err := ReplayBytes(bad, detect.Config{Mode: detect.ModeOracle}); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("corrupt magic: err = %v", err)
	}
	// An unknown opcode inside a well-framed block.
	var blk bytes.Buffer
	blk.Write(magicV2)
	payload := encodeTestBlock(t, []byte{v2Invalid})
	blk.Write(payload)
	blk.WriteByte(0)
	if _, err := ReplayBytes(blk.Bytes(), detect.Config{Mode: detect.ModeOracle}); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("invalid opcode: err = %v", err)
	}
}

// encodeTestBlock frames raw event bytes as one v2 block (flate +
// length prefixes), for tests that hand-build streams.
func encodeTestBlock(t *testing.T, raw []byte) []byte {
	t.Helper()
	r := newRecorder(nil)
	r.comp.Reset()
	r.fw.Reset(&r.comp)
	if _, err := r.fw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := r.fw.Close(); err != nil {
		t.Fatal(err)
	}
	out := binary.AppendUvarint(nil, uint64(r.comp.Len()))
	out = binary.AppendUvarint(out, uint64(len(raw)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(r.comp.Bytes(), castagnoli))
	return append(out, r.comp.Bytes()...)
}

func TestTraceCompactness(t *testing.T) {
	// A loop of n sequential accesses coalesces into a single range
	// event; the whole trace must stay within a few dozen bytes.
	raw, err := RecordBytes(func(t *detect.Task) {
		for i := 0; i < 1000; i++ {
			t.Write(uint64(i))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64 {
		t.Fatalf("trace too fat: %d bytes for a coalescible 1000-word scan", len(raw))
	}
	// Alternating accesses to far-apart arrays cannot coalesce (the
	// kernel-loop shape: read two inputs, write an output); after the
	// delta cache warms up on the recurring strides they must still
	// average ~1 byte per access.
	raw, err = RecordBytes(func(t *detect.Task) {
		for i := 0; i < 1000; i++ {
			t.Read(uint64(1 + i))
			t.Read(uint64(100000 + i))
			t.Write(uint64(500000 + i*7))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 3000/2 {
		t.Fatalf("trace too fat: %d bytes for 3000 strided accesses", len(raw))
	}
	// mm's inner loop (read a row of B, read a row of C, write that row
	// of C; rows n words apart) leaves interleaved range streams, two of
	// them reads. Each range is coded against its own stream's end, so
	// once the stride cache has warmed up every range is one cached byte:
	// past the warm-up, the inflated bytes average at most 1.1 per range.
	const mmWarm, mmRows = 2, 34
	var mmStat [2]*StatInfo
	for r, rows := range []int{mmWarm, mmRows} {
		raw, err := RecordBytes(func(t *detect.Task) {
			const n, size, b, c = 256, 16, 1 << 20, 1 << 21
			for i := 0; i < rows; i++ {
				for k := 0; k < size; k++ {
					for j := 0; j < size; j++ {
						t.Read(uint64(b + k*n + j))
						t.Read(uint64(c + i*n + j))
						t.Write(uint64(c + i*n + j))
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if mmStat[r], err = Stat(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
		if want := int64(rows * 16 * 3); mmStat[r].Accesses != want {
			t.Fatalf("%d rows: %d access events, want %d row ranges", rows, mmStat[r].Accesses, want)
		}
	}
	ranges := mmStat[1].Accesses - mmStat[0].Accesses
	if perRange := float64(mmStat[1].Inflated-mmStat[0].Inflated) / float64(ranges); perRange > 1.1 {
		t.Fatalf("mm inner loop: %.2f inflated bytes per range event past the warm-up (%+v)", perRange, *mmStat[1])
	}
}

// TestDeepSpawnChainReplaysIteratively: a 100k-deep spawn chain must
// replay in constant Go stack. The stack cap makes a recursive replay
// (≳ depth × frame size) fatal rather than silently fine on a machine
// with a big default limit.
func TestDeepSpawnChainReplaysIteratively(t *testing.T) {
	const depth = 100_000
	old := debug.SetMaxStack(4 << 20)
	defer debug.SetMaxStack(old)

	// Hand-framed event bytes: a recursive recorder would need the very
	// stack this test takes away.
	var payload []byte
	for i := 0; i < depth; i++ {
		payload = append(payload, v2Spawn)
	}
	payload = append(payload, v2Write)
	payload = appendEscape(payload, zigzag(1), 0)
	for i := 0; i < depth; i++ {
		payload = append(payload, v2TaskEnd)
	}
	var buf bytes.Buffer
	buf.Write(magicV2)
	buf.Write(encodeTestBlock(t, payload))
	buf.WriteByte(0)

	rep, err := ReplayBytes(buf.Bytes(), detect.Config{Mode: detect.ModeMultiBagsPlus, Mem: detect.MemFull})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.Stats.Spawns != depth {
		t.Fatalf("replayed %d spawns, want %d", rep.Stats.Spawns, depth)
	}
}

// TestStatCountsEvents pins the Stat summary on a known program.
func TestStatCountsEvents(t *testing.T) {
	raw, err := RecordBytes(prog)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Stat(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes != int64(len(raw)) {
		t.Fatalf("bytes: %+v (stream is %d bytes)", st, len(raw))
	}
	if st.Spawns != 1 || st.Creates != 1 || st.Gets != 1 || st.Labels != 2 {
		t.Fatalf("structural counts: %+v", st)
	}
	// Five accessed words in four events: the future's writes to 5 and 6
	// coalesce into one range.
	if st.Words != 5 || st.Accesses != 4 {
		t.Fatalf("Words/Accesses = %d/%d, want 5/4", st.Words, st.Accesses)
	}
	// Every event falls in exactly one class: the future's range escapes
	// (nothing is cached yet), the three single-word accesses are small
	// deltas from their kind's last end, and the other eight events are
	// structural.
	if got := st.Small + st.Medium + st.Cached + st.Escape + st.Structural; got != st.Events {
		t.Fatalf("class counts %+v sum to %d, not the %d events", st, got, st.Events)
	}
	if st.Small != 3 || st.Medium != 0 || st.Cached != 0 || st.Escape != 1 || st.Structural != 8 {
		t.Fatalf("class counts: %+v", st)
	}
	// The eight structural opcodes, the get's id delta, the three small
	// accesses, the escape (opcode, delta-and-base operand, word count)
	// and each label's length byte and bytes.
	if want := int64(8 + 1 + 3 + 3 + 1 + len("main") + 1 + len("producer")); st.Inflated != want {
		t.Fatalf("inflated bytes %d, want %d", st.Inflated, want)
	}
	// Bytes after the terminator are not part of the stream: Stat
	// rejects them instead of counting the bufio read-ahead.
	junk := append(append([]byte{}, raw...), make([]byte, 100)...)
	if st, err := Stat(bytes.NewReader(junk)); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("Stat accepted 100 trailing bytes: %+v, %v", st, err)
	}
}

// TestTrailingBytesAfterTerminator: the terminator block ends the
// stream. Strict replay fails on anything after it; the recovering
// replay keeps every event before it and reports the cut.
func TestTrailingBytesAfterTerminator(t *testing.T) {
	raw, err := RecordBytes(prog)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Stat(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	const reason = "trailing bytes after terminator"
	for _, tail := range [][]byte{{0}, make([]byte, 100), raw} {
		junk := append(append([]byte{}, raw...), tail...)
		if _, err := ReplayBytes(junk, hostileCfg); !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), reason) {
			t.Fatalf("%d trailing bytes: Replay err = %v, want ErrBadTrace with %q", len(tail), err, reason)
		}
		if _, err := Stat(bytes.NewReader(junk)); !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), reason) {
			t.Fatalf("%d trailing bytes: Stat err = %v, want ErrBadTrace with %q", len(tail), err, reason)
		}
		rep, err := ReplayRecover(bytes.NewReader(junk), hostileCfg, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		ts := rep.Stats.Trace
		if !ts.Truncated || ts.TruncatedAtEvent != uint64(st.Events) || !strings.Contains(ts.Reason, reason) {
			t.Fatalf("%d trailing bytes: recovery %+v, want a cut after all %d events", len(tail), ts, st.Events)
		}
		if len(rep.Races) != 1 || rep.Races[0].Addr != 5 {
			t.Fatalf("%d trailing bytes: recovered races = %v, want one race on addr 5", len(tail), rep.Races)
		}
	}
}

// TestBlockFramingSpansBlocks forces multi-block streams and checks the
// decoder's cross-block state (delta caches, create counter) survives.
// strides is a multi-block stream of nothing but single-word accesses:
// three interleaved streams of strides 2, 3 and 5, so no access extends
// any op and none coalesce, fill blocks fast.
func strides(t *detect.Task) {
	for i := 0; i < 200_000; i++ {
		t.Read(uint64(1 + 2*i))
		t.Read(uint64(1_000_000 + i*3))
		t.Write(uint64(9_000_000 + i*5))
	}
}

func TestBlockFramingSpansBlocks(t *testing.T) {
	raw, err := RecordBytes(strides)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Stat(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses != 600_000 {
		t.Fatalf("accesses = %d, want 600000", st.Accesses)
	}
	if n := blockCount(t, raw); n < 2 {
		t.Fatalf("strides recorded %d block(s); it must span a block boundary", n)
	}
	cfg := detect.Config{Mode: detect.ModeMultiBagsPlus, Mem: detect.MemFull}
	direct := detect.NewEngine(cfg).Run(strides)
	rep, err := ReplayBytes(raw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Shadow.Reads != direct.Stats.Shadow.Reads ||
		rep.Stats.Shadow.Writes != direct.Stats.Shadow.Writes {
		t.Fatalf("replay shadow traffic diverged: %+v vs %+v",
			rep.Stats.Shadow, direct.Stats.Shadow)
	}
}

// enclosing accesses memory through its enclosing task's handle inside a
// spawned body. Detection runs p.Write(2) as p's fork strand, which
// precedes both later writes of 2, so it reports races on 1 and 3 only.
// The stream cannot name a task, so a replay would run that write as the
// child and report 2 too: Record must refuse the program instead.
func enclosing(p *detect.Task) {
	p.Spawn(func(c *detect.Task) {
		c.Write(1)
		p.Write(2)
		c.Write(3)
	})
	p.Write(1)
	p.Write(2)
	p.Write(3)
}

// TestRecordRefusesForeignTask: an event through a task other than the
// executing body's own fails the recording with ErrForeignTask, naming
// the event, for accesses and constructs alike.
func TestRecordRefusesForeignTask(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog func(*detect.Task)
	}{
		{"write", enclosing},
		{"sync", func(p *detect.Task) {
			p.CreateFut(func(f *detect.Task) any { p.Sync(); return nil })
		}},
		{"spawn", func(p *detect.Task) {
			p.Spawn(func(c *detect.Task) { p.Spawn(func(*detect.Task) {}) })
			p.Sync()
		}},
	} {
		var buf bytes.Buffer
		err := Record(&buf, tc.prog)
		if !errors.Is(err, ErrForeignTask) || !strings.Contains(err.Error(), tc.name) {
			t.Fatalf("%s: Record err = %v, want ErrForeignTask naming the %s", tc.name, err, tc.name)
		}
		// What reached the writer is no trace: it has no terminator.
		if _, err := ReplayBytes(buf.Bytes(), detect.Config{Mode: detect.ModeMultiBags}); !errors.Is(err, ErrBadTrace) {
			t.Fatalf("%s: replay of the refused stream: %v, want ErrBadTrace", tc.name, err)
		}
	}
	// A program that uses only its own handles still records.
	if _, err := RecordBytes(prog); err != nil {
		t.Fatal(err)
	}
}
