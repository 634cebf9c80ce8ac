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
	"futurerd/internal/shadow"
)

var hostileCfg = detect.Config{Mode: detect.ModeMultiBagsPlus, Mem: detect.MemFull}

// fuzzLimits are FuzzTraceReader's limits: small enough that no input can
// make a fuzz iteration slow or large. 64 shadow pages are 2 MiB.
var fuzzLimits = Limits{MaxEvents: 1 << 12, MaxWords: 1 << 20, MaxPages: 64}

// TestCorruptFixtures pins the reader's behavior on the checked-in
// damaged traces: the strict path must diagnose each one's damage as
// ErrBadTrace (not panic, and not the bad magic of a stale format), and
// the recovering path must replay the intact prefix and describe the
// same cut. Both fixtures are the recording of
// progen.Generate(42, progen.Options{Dialect: progen.Structured}) of
// length L: corrupt_truncated.trace keeps its first L/2 bytes, and
// corrupt_bitflip.trace flips bit 0 of byte L/2, inside the block's
// compressed payload.
func TestCorruptFixtures(t *testing.T) {
	for _, tc := range []struct{ name, reason string }{
		{"corrupt_truncated.trace", "truncated block"},
		{"corrupt_bitflip.trace", "block checksum mismatch"},
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", tc.name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReplayBytes(raw, hostileCfg); !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), tc.reason) {
			t.Fatalf("%s: strict replay err = %v, want ErrBadTrace with %q", tc.name, err, tc.reason)
		}
		rep, err := ReplayRecover(bytes.NewReader(raw), hostileCfg, Limits{})
		if err != nil {
			t.Fatalf("%s: recovering replay failed: %v", tc.name, err)
		}
		ts := rep.Stats.Trace
		if !ts.Truncated || !strings.Contains(ts.Reason, tc.reason) {
			t.Fatalf("%s: recovery did not report the cut: %+v", tc.name, ts)
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
		{"pages", Limits{MaxPages: 100}, stridesPageCut(100)},
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

// stridesPageCut returns the number of strides events replayed before the
// one that touches its (maxPages+1)-th distinct shadow page.
func stridesPageCut(maxPages int) uint64 {
	seen := map[uint64]bool{}
	for i := uint64(0); ; i++ {
		for k, addr := range []uint64{1 + 2*i, 1_000_000 + 3*i, 9_000_000 + 5*i} {
			if pn := addr >> shadow.PageBits; !seen[pn] {
				if len(seen) == maxPages {
					return 3*i + uint64(k)
				}
				seen[pn] = true
			}
		}
	}
}

// TestReplayRecoverPageBudget: a stream of a few dozen bytes whose every
// one-word access lands on a fresh shadow page — one read escape of delta
// 2^30, then cached references repeating that stride — must stop at the
// page budget with a replay-limit cut instead of materializing a 32 KiB
// page per event. Without the budget, FuzzTraceReader's other limits let
// it allocate over 200 MB.
func TestReplayRecoverPageBudget(t *testing.T) {
	raw, err := RecordBytes(func(t *detect.Task) {
		for i := uint64(0); i < 1<<12; i++ {
			t.Read((i+1)<<30 + i) // 2^30 past the previous read's end
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64 {
		t.Fatalf("the stream is %d bytes; its accesses no longer repeat one cached stride", len(raw))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := ReplayRecover(bytes.NewReader(raw), hostileCfg, fuzzLimits)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	ts := rep.Stats.Trace
	if !ts.Truncated || ts.TruncatedAtEvent != fuzzLimits.MaxPages || !strings.Contains(ts.Reason, "replay limit") {
		t.Fatalf("page budget not applied: %+v", ts)
	}
	if got := rep.Stats.Shadow.TouchedPages; got != fuzzLimits.MaxPages {
		t.Fatalf("TouchedPages = %d, want the budget %d", got, fuzzLimits.MaxPages)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 8<<20 {
		t.Fatalf("replay allocated %d bytes, want under 8 MiB", alloc)
	}
}

// checkAccessCut frames a one-block trace of two good accesses followed
// by the bad event. The good ones are a medium-class read of delta 0,
// which fills slot 0 of the read stride cache, and a small-class write
// of delta 0. Strict replay must fail with ErrBadTrace naming reason,
// and the recovering replay must cut after the two good accesses.
func checkAccessCut(t *testing.T, bad []byte, reason string) {
	t.Helper()
	const smallZero = smallBase + smallBias // 1-word read, delta 0
	payload := append([]byte{medBase + medBias>>8, medBias & 0xff, smallZero + smallSpan}, bad...)
	var buf bytes.Buffer
	buf.Write(magicV2)
	buf.Write(encodeTestBlock(t, payload))
	buf.WriteByte(0)
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

// TestTruncatedMediumOperand: a block that ends in a medium-class opcode
// without its operand byte fails strict replay, and the recovering
// replay cuts at the access before it.
func TestTruncatedMediumOperand(t *testing.T) {
	checkAccessCut(t, []byte{medBase}, "truncated medium-delta operand")
}

// TestMalformedAccessOperands: an escape that names base 3 (there are
// three bases), an escape operand past 66 bits and a cached reference to
// a stride slot its kind never filled are malformed. An empty slot would
// otherwise replay as a 0-word op. The good read fills slot 0 of the
// read cache only, so a write's reference to its slot 0 finds it empty.
func TestMalformedAccessOperands(t *testing.T) {
	for _, tc := range []struct {
		name   string
		bad    []byte
		reason string
	}{
		{"base 3", appendEscape([]byte{v2Read}, zigzag(1), 3), "escape names delta base 3"},
		{"ranged base 3", append(appendEscape([]byte{v2WriteN}, zigzag(1), 3), 2), "escape names delta base 3"},
		{"empty slot", []byte{cacheBase | 5}, "empty stride-cache slot 5"},
		{"other kind's slot", []byte{cacheBase | 1<<6}, "empty stride-cache slot 0"},
		{"overlong escape", append([]byte{v2Read}, bytes.Repeat([]byte{0xff}, 10)...), "overlong escape operand"},
	} {
		t.Run(tc.name, func(t *testing.T) { checkAccessCut(t, tc.bad, tc.reason) })
	}
}

// TestEscapeOperandWidths: an escape operand carries a full 64-bit
// zigzag delta above its 2-bit base, 66 bits in up to 10 bytes, and
// decodes back exactly at every width.
func TestEscapeOperandWidths(t *testing.T) {
	for _, zz := range []uint64{0, 1, 31, 32, 1 << 61, 1<<62 - 1, 1 << 62, 1 << 63, ^uint64(0)} {
		for base := 0; base < 4; base++ {
			d := &v2Decoder{raw: appendEscape(nil, zz, base)}
			if len(d.raw) > 10 {
				t.Fatalf("zz %#x base %d: %d bytes", zz, base, len(d.raw))
			}
			gz, gb, err := d.escapeOperand()
			if err != nil || gz != zz || gb != base || d.pos != len(d.raw) {
				t.Fatalf("zz %#x base %d: decoded %#x, %d, %v after %d of %d bytes",
					zz, base, gz, gb, err, d.pos, len(d.raw))
			}
		}
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
	// fuzz limit of 4096 events: ~10-byte range escapes spill past the
	// 32 KiB block target within one access run. Each range cycles
	// through four regions 2^50 words apart, so its kind's last three ends
	// lie in the other regions, and a fixed-seed xorshift jitters every
	// offset, so no stride repeats into the cache. The regions stay a few
	// shadow pages each.
	multi, err := RecordBytes(func(t *detect.Task) {
		x := uint64(0x9E3779B97F4A7C15)
		for i := uint64(0); i < 3800; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			t.ReadRange(i%4<<50+16*(i/4)+x%4096, 2)
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
	f.Add(magicV2)
	f.Add(append(append([]byte{}, magicV2...), 0xff, 0xff, 0xff, 0x1f))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The strict reader may accept or reject, never panic.
		ReplayBytes(data, hostileCfg)
		rep, err := ReplayRecover(bytes.NewReader(data), hostileCfg, fuzzLimits)
		if err != nil {
			t.Fatalf("recovering replay failed: %v", err)
		}
		if rep == nil {
			t.Fatal("recovering replay returned no report")
		}
	})
}
