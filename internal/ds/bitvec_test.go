package ds

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestBitVecSetHasClear(t *testing.T) {
	var b BitVec
	if b.Has(0) || b.Has(1000) {
		t.Fatal("empty vector has bits set")
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(1000)
	for _, i := range []uint32{0, 63, 64, 1000} {
		if !b.Has(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Count() != 4 {
		t.Fatalf("Count = %d, want 4", b.Count())
	}
	b.Clear(64)
	if b.Has(64) {
		t.Fatal("Clear failed")
	}
	if b.Count() != 3 {
		t.Fatalf("Count after clear = %d, want 3", b.Count())
	}
}

func TestBitVecOr(t *testing.T) {
	a := new(BitVec)
	b := new(BitVec)
	a.Set(1)
	b.Set(2)
	b.Set(200) // force growth in a
	if !a.Or(b) {
		t.Fatal("Or with new bits reported no change")
	}
	if !a.Has(1) || !a.Has(2) || !a.Has(200) {
		t.Fatal("Or lost bits")
	}
	if a.Or(b) {
		t.Fatal("repeated Or reported change")
	}
}

func TestBitVecOrWithBit(t *testing.T) {
	a := new(BitVec)
	b := new(BitVec)
	b.Set(3)
	if !a.OrWithBit(b, 5) {
		t.Fatal("expected change")
	}
	if !a.Has(3) || !a.Has(5) {
		t.Fatal("OrWithBit missing bits")
	}
	if a.OrWithBit(b, 5) {
		t.Fatal("idempotent OrWithBit reported change")
	}
	// Bit already present but source brings a new one.
	b.Set(70)
	if !a.OrWithBit(b, 5) {
		t.Fatal("new source bit not detected")
	}
	if !a.Has(70) {
		t.Fatal("bit 70 missing")
	}
}

// OrWithBit grows its target once, to exactly the source's length or the
// bit's word, whichever is longer; Set keeps doubling.
func TestBitVecOrWithBitExactSize(t *testing.T) {
	var src, dst BitVec
	src.Set(130) // 3 words
	if dst.OrWithBit(&src, 5); dst.Words() != 3 {
		t.Fatalf("grown to %d words, want the source's 3", dst.Words())
	}
	if dst.OrWithBit(&src, 64*7+1); dst.Words() != 8 {
		t.Fatalf("grown to %d words, want 8 for bit %d", dst.Words(), 64*7+1)
	}
	if dst.OrWithBit(&src, 9); dst.Words() != 8 {
		t.Fatalf("a fitting OrWithBit resized the target to %d words", dst.Words())
	}
	var set BitVec
	set.Set(0)
	set.Set(64)
	if set.Words() != 2 {
		t.Fatalf("Set grew to %d words, want 2", set.Words())
	}
	if set.Set(128); set.Words() != 4 {
		t.Fatalf("Set grew to %d words, want 4 (doubling)", set.Words())
	}
}

func TestBitVecForEach(t *testing.T) {
	var b BitVec
	want := []uint32{3, 64, 65, 300}
	for _, i := range want {
		b.Set(i)
	}
	var got []uint32
	b.ForEach(func(i uint32) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order: got %v, want %v", got, want)
		}
	}
}

func TestBitVecReset(t *testing.T) {
	var b BitVec
	b.Set(10)
	b.Set(100)
	b.Reset()
	if b.Count() != 0 {
		t.Fatal("Reset left bits")
	}
}

// TestBitVecMatchesMap compares against a map[uint32]bool model under a
// random op sequence.
func TestBitVecMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	var b BitVec
	model := map[uint32]bool{}
	for op := 0; op < 3000; op++ {
		i := uint32(rng.IntN(512))
		switch rng.IntN(3) {
		case 0:
			b.Set(i)
			model[i] = true
		case 1:
			b.Clear(i)
			delete(model, i)
		case 2:
			if b.Has(i) != model[i] {
				t.Fatalf("op %d: Has(%d) = %v, want %v", op, i, b.Has(i), model[i])
			}
		}
	}
	if b.Count() != len(model) {
		t.Fatalf("Count = %d, want %d", b.Count(), len(model))
	}
}

// TestBitVecOrQuick: Or is union — every bit of either operand is present
// after, and Count is bounded by the sum.
func TestBitVecOrQuick(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a := new(BitVec)
		b := new(BitVec)
		for _, x := range xs {
			a.Set(uint32(x) % 4096)
		}
		for _, y := range ys {
			b.Set(uint32(y) % 4096)
		}
		ca, cb := a.Count(), b.Count()
		a.Or(b)
		if a.Count() > ca+cb {
			return false
		}
		ok := true
		b.ForEach(func(i uint32) {
			if !a.Has(i) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
