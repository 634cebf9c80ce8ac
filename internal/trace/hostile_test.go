package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"futurerd/internal/detect"
	"futurerd/internal/faultinject"
)

var hostileCfg = detect.Config{Mode: detect.ModeMultiBagsPlus, Mem: detect.MemFull}

// TestCorruptFixtures pins the reader's behavior on the checked-in
// damaged traces: the strict path must diagnose them as ErrBadTrace (not
// panic), and the recovering path must replay the intact prefix and
// describe the cut.
func TestCorruptFixtures(t *testing.T) {
	for _, name := range []string{"corrupt_truncated.trace", "corrupt_bitflip.trace"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReplayBytes(raw, hostileCfg); !errors.Is(err, ErrBadTrace) {
			t.Fatalf("%s: strict replay err = %v, want ErrBadTrace", name, err)
		}
		rep, err := ReplayRecover(bytes.NewReader(raw), hostileCfg, Limits{})
		if err != nil {
			t.Fatalf("%s: recovering replay failed: %v", name, err)
		}
		ts := rep.Stats.Trace
		if !ts.Truncated || ts.Reason == "" {
			t.Fatalf("%s: recovery did not report the cut: %+v", name, ts)
		}
	}
}

// TestForgedLengthPrefixNoOOM feeds the reader a few-byte stream whose
// first block header claims a near-maximal block. A reader that trusts
// the prefix pre-allocates ~64MB from a forged uvarint; the chunked
// reader must fail after at most one read chunk.
func TestForgedLengthPrefixNoOOM(t *testing.T) {
	raw, err := RecordBytes(prog)
	if err != nil {
		t.Fatal(err)
	}
	forged := append([]byte(nil), raw[:len(magicV2)]...)
	forged = append(forged, 0xFF, 0xFF, 0xFF, 0x1F) // uvarint 0x3FFFFFF: ~64MB block
	forged = append(forged, raw[len(magicV2):]...)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := ReplayBytes(forged, hostileCfg); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("forged prefix: err = %v, want ErrBadTrace", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("forged length prefix drove %d bytes of allocation; the reader trusted it", grew)
	}

	rep, err := ReplayRecover(bytes.NewReader(forged), hostileCfg, Limits{})
	if err != nil {
		t.Fatalf("recovering replay failed: %v", err)
	}
	if !rep.Stats.Trace.Truncated {
		t.Fatalf("recovery accepted a forged stream: %+v", rep.Stats.Trace)
	}
}

// TestBitFlipSweep flips one bit at every body offset of a valid
// recording. No position may panic either reader; the strict reader must
// either error or produce a report, and at least one position must be
// caught by the block checksum specifically (proving the CRC is live).
func TestBitFlipSweep(t *testing.T) {
	raw, err := RecordBytes(prog)
	if err != nil {
		t.Fatal(err)
	}
	sawChecksum := false
	for off := len(magicV2); off < len(raw); off++ {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 1
		if _, err := ReplayBytes(bad, hostileCfg); err != nil {
			if strings.Contains(err.Error(), "checksum") {
				sawChecksum = true
			}
		}
		rep, err := ReplayRecover(bytes.NewReader(bad), hostileCfg, Limits{})
		if err != nil || rep == nil {
			t.Fatalf("offset %d: recovering replay failed: %v", off, err)
		}
	}
	if !sawChecksum {
		t.Fatal("no bit flip was caught by the block checksum")
	}
}

// TestCorruptBytesModes drives the seeded corruption helper across many
// seeds — the same transformations the differential-fuzz arm applies —
// and asserts fail-closed reads for every mode.
func TestCorruptBytesModes(t *testing.T) {
	raw, err := RecordBytes(prog)
	if err != nil {
		t.Fatal(err)
	}
	modes := map[string]bool{}
	for seed := uint64(0); seed < 64; seed++ {
		bad, mode := faultinject.CorruptBytes(seed, raw, len(magicV2))
		modes[mode] = true
		rep, err := ReplayRecover(bytes.NewReader(bad), hostileCfg, Limits{})
		if err != nil {
			t.Fatalf("seed %d (%s): recovering replay failed: %v", seed, mode, err)
		}
		if bytes.Equal(bad, raw) && rep.Stats.Trace.Truncated {
			t.Fatalf("seed %d (%s): unmodified stream reported truncated", seed, mode)
		}
	}
	for _, want := range []string{
		faultinject.CorruptTruncate, faultinject.CorruptBitFlip, faultinject.CorruptForgePrefix,
	} {
		if !modes[want] {
			t.Fatalf("64 seeds never exercised %s", want)
		}
	}
}

// TestReplayRecoverLimits: the limits are cuts, not errors.
func TestReplayRecoverLimits(t *testing.T) {
	raw, err := RecordBytes(prog)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayRecover(bytes.NewReader(raw), hostileCfg, Limits{MaxEvents: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := rep.Stats.Trace
	if !ts.Truncated || ts.TruncatedAtEvent != 3 || !strings.Contains(ts.Reason, "limit") {
		t.Fatalf("event limit not applied: %+v", ts)
	}
	rep, err = ReplayRecover(bytes.NewReader(raw), hostileCfg, Limits{MaxWords: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ts = rep.Stats.Trace; !ts.Truncated || !strings.Contains(ts.Reason, "words") {
		t.Fatalf("word limit not applied: %+v", ts)
	}
	rep, err = ReplayRecover(bytes.NewReader(raw), hostileCfg, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if ts = rep.Stats.Trace; ts.Truncated || ts.TruncatedAtEvent != 0 {
		t.Fatalf("clean stream reported a cut: %+v", ts)
	}
	if len(rep.Races) != 1 {
		t.Fatalf("clean recovering replay found %d races, want 1", len(rep.Races))
	}
}

// TestReplayRecoverLimitsInsideRun: on a multi-block stream of nothing
// but single-word accesses, each limit cuts in the middle of a decoded
// run, and the replay covers exactly the prefix up to the limit.
func TestReplayRecoverLimitsInsideRun(t *testing.T) {
	raw, err := RecordBytes(strides)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		lim   Limits
		limit uint64
	}{
		// Past the first block, not a multiple of the run buffer or of
		// event.MaxOps.
		{"events", Limits{MaxEvents: 33_333}, 33_333},
		{"words", Limits{MaxWords: 9_999}, 9_999},
	} {
		rep, err := ReplayRecover(bytes.NewReader(raw), hostileCfg, tc.lim)
		if err != nil {
			t.Fatal(err)
		}
		ts := rep.Stats.Trace
		if !ts.Truncated || ts.TruncatedAtEvent != tc.limit || !strings.Contains(ts.Reason, "limit") {
			t.Fatalf("%s limit %d: %+v", tc.name, tc.limit, ts)
		}
		// Every event of the prefix is a single-word access.
		if got := rep.Stats.Shadow.Reads + rep.Stats.Shadow.Writes; got != tc.limit {
			t.Fatalf("%s limit %d: replayed %d words", tc.name, tc.limit, got)
		}
	}
}

// TestTruncatedMediumOperand: a block that ends in a medium-class opcode
// without its operand byte fails strict replay, and the recovering
// replay cuts at the access before it.
func TestTruncatedMediumOperand(t *testing.T) {
	const smallZero = smallBase + smallBias // 1-word read, delta 0
	payload := []byte{smallZero, smallZero + smallSpan, medBase}
	var buf bytes.Buffer
	buf.Write(magicV2)
	buf.Write(encodeTestBlock(t, payload))
	buf.WriteByte(0)
	const reason = "truncated medium-delta operand"
	if _, err := ReplayBytes(buf.Bytes(), hostileCfg); !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), reason) {
		t.Fatalf("strict replay err = %v, want ErrBadTrace with %q", err, reason)
	}
	rep, err := ReplayRecover(bytes.NewReader(buf.Bytes()), hostileCfg, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	ts := rep.Stats.Trace
	if !ts.Truncated || ts.TruncatedAtEvent != 2 || !strings.Contains(ts.Reason, reason) {
		t.Fatalf("recovery %+v, want a cut after 2 events", ts)
	}
	if rep.Stats.Shadow.Reads != 1 || rep.Stats.Shadow.Writes != 1 {
		t.Fatalf("recovered shadow traffic %+v, want one read and one write", rep.Stats.Shadow)
	}
}

// FuzzTraceReader throws raw bytes at the v2 reader. The recovering
// replay must never panic, OOM, or hang, whatever the stream claims; the
// strict replay must fail with an error rather than a panic.
func FuzzTraceReader(f *testing.F) {
	raw, err := RecordBytes(prog)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	// A multi-block seed whose block boundary falls well inside the
	// fuzz limit of 4096 events: ~10-byte range events spill past the
	// 32 KiB block target within one access run.
	multi, err := RecordBytes(func(t *detect.Task) {
		for i := uint64(0); i < 3500; i++ {
			t.ReadRange(i%2<<50+4*i, 2)
		}
	})
	if err != nil {
		f.Fatal(err)
	}
	if n := blockCount(f, multi); n < 2 {
		f.Fatalf("multi-block seed has %d block(s)", n)
	}
	f.Add(multi)
	for seed := uint64(0); seed < 8; seed++ {
		bad, _ := faultinject.CorruptBytes(seed, raw, len(magicV2))
		f.Add(bad)
	}
	f.Add([]byte{})
	f.Add([]byte("FUTRD2\n"))
	f.Add([]byte("FUTRD2\n\xff\xff\xff\x1f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The strict reader may accept or reject, never panic.
		ReplayBytes(data, hostileCfg)
		rep, err := ReplayRecover(bytes.NewReader(data), hostileCfg,
			Limits{MaxEvents: 1 << 12, MaxWords: 1 << 20})
		if err != nil {
			t.Fatalf("recovering replay failed: %v", err)
		}
		if rep == nil {
			t.Fatal("recovering replay returned no report")
		}
	})
}
