package event

import (
	"reflect"
	"testing"
)

func TestAppendCoalescesContiguousSameKind(t *testing.T) {
	var b Batch
	for i := uint64(0); i < 100; i++ {
		b.Append(Read, 10+i, 1)
	}
	if b.Len() != 1 {
		t.Fatalf("sequential scan coalesced to %d ops, want 1", b.Len())
	}
	if op := b.Ops[0]; op.Addr != 10 || op.Words != 100 || op.Kind != Read {
		t.Fatalf("coalesced op = %+v", op)
	}
	// A range extending the run coalesces too.
	b.Append(Read, 110, 50)
	if b.Len() != 1 || b.Ops[0].Words != 150 {
		t.Fatalf("range extension not coalesced: %+v", b.Ops)
	}
}

func TestAppendSplitsOnKindGapAndDirection(t *testing.T) {
	var b Batch
	b.Append(Read, 10, 1)
	b.Append(Write, 11, 1) // kind change
	b.Append(Write, 20, 1) // gap
	b.Append(Write, 19, 1) // backwards (never coalesced)
	if b.Len() != 4 {
		t.Fatalf("got %d ops, want 4: %+v", b.Len(), b.Ops)
	}
}

func TestAppendIgnoresEmptyAccess(t *testing.T) {
	var b Batch
	if n := b.Append(Read, 5, 0); n != 0 || b.Len() != 0 {
		t.Fatalf("zero-word access buffered: len=%d", b.Len())
	}
	if n := b.Append(Write, 5, -3); n != 0 || b.Len() != 0 {
		t.Fatalf("negative access buffered: len=%d", b.Len())
	}
}

func TestPoolRoundTrip(t *testing.T) {
	b := New()
	b.Strand = 7
	b.Append(Write, 1, 4)
	Recycle(b)
	c := New() // may or may not be b; must be empty either way
	if c.Len() != 0 || c.Strand != 0 {
		t.Fatalf("recycled batch not reset: %+v", c)
	}
	Recycle(nil) // must not panic
}

// TestAppendCoalescesInterleavedStreams: a matrix kernel's inner loop
// reads B(k,j), reads C(i,j) and writes C(i,j) for j across a row. No
// access extends the op just before it, but each extends its own stream's
// op, so the row's three streams become three ops.
func TestAppendCoalescesInterleavedStreams(t *testing.T) {
	const b0, c0, row = 1000, 2000, 16
	var b Batch
	for j := uint64(0); j < row; j++ {
		b.Append(Read, b0+j, 1)
		b.Append(Read, c0+j, 1)
		b.Append(Write, c0+j, 1)
	}
	want := []Op{{b0, row, Read}, {c0, row, Read}, {c0, row, Write}}
	if !reflect.DeepEqual(b.Ops, want) {
		t.Fatalf("row coalesced to %+v, want %+v", b.Ops, want)
	}
}

// TestAppendKeepsWordOrder: an access that extends an earlier op is not
// merged into it when a later op touches one of its words, and an op more
// than lookback ops before the last is not extended.
func TestAppendKeepsWordOrder(t *testing.T) {
	var b Batch
	b.Append(Read, 10, 1)
	b.Append(Write, 11, 1)
	b.Append(Read, 11, 1) // extends op 0, but must stay after the write of 11
	if b.Len() != 3 {
		t.Fatalf("read moved ahead of a write to its word: %+v", b.Ops)
	}
	var c Batch
	for s := uint64(0); s < lookback+2; s++ {
		c.Append(Read, 100*s, 1)
	}
	c.Append(Read, 1, 1) // extends op 0, lookback+1 ops before the last
	if c.Len() != lookback+3 {
		t.Fatalf("extended an op beyond the lookback: %+v", c.Ops)
	}
}

// FuzzAppendPreservesWordOrder: for any mix of accesses drawn from a few
// interleaved contiguous streams, scattered words and ranges over the
// same addresses, both kinds, the batch's ops expanded word by word give
// every word the same sequence of kinds as the raw accesses.
func FuzzAppendPreservesWordOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 2, 0, 1, 2})
	f.Add([]byte{0, 8, 1, 9, 2, 10, 0x43, 5, 0x84, 7, 0, 1, 2, 3})
	f.Add([]byte{0x10, 0x11, 0x12, 0x13, 0x40, 1, 0x10, 0x11, 0x12, 0x13})
	f.Fuzz(func(t *testing.T, in []byte) {
		const span = 48 // streams and scattered accesses share [0, 4*span)
		var next [4]uint64
		for s := range next {
			next[s] = uint64(s) * span
		}
		var b Batch
		want := map[uint64][]Kind{}
		for i := 0; i < len(in); i++ {
			c := in[i]
			k := Kind(c >> 4 & 1)
			var addr uint64
			words := 1
			switch {
			case c&0xc0 == 0: // stream c&3 advances by one word
				s := c & 3
				addr = next[s]
				next[s]++
			case i+1 < len(in):
				i++
				addr = uint64(in[i]) % (4 * span)
				if c&0x80 != 0 { // a range of 1..8 words
					words = int(c&7) + 1
				}
			}
			for w := 0; w < words; w++ {
				want[addr+uint64(w)] = append(want[addr+uint64(w)], k)
			}
			b.Append(k, addr, words)
		}
		got := map[uint64][]Kind{}
		for _, op := range b.Ops {
			if op.Words <= 0 {
				t.Fatalf("empty op %+v", op)
			}
			for w := 0; w < op.Words; w++ {
				got[op.Addr+uint64(w)] = append(got[op.Addr+uint64(w)], op.Kind)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("per-word kind order changed:\nops  %+v\ngot  %v\nwant %v", b.Ops, got, want)
		}
	})
}
