package ds

import (
	"math/rand/v2"
	"testing"
)

// TestBitVecSetHasClear: set bits read as set, and every other bit,
// including those past the vector's end, reads as clear.
func TestBitVecSetHasClear(t *testing.T) {
	var b BitVec
	if b.Has(0) || b.Has(1000) {
		t.Fatal("empty vector has bits set")
	}
	set := []uint32{0, 63, 64, 1000}
	for _, i := range set {
		b.Set(i)
	}
	for _, i := range set {
		if !b.Has(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	for _, i := range []uint32{1, 62, 65, 999, 1001, 1 << 20} {
		if b.Has(i) {
			t.Fatalf("bit %d set but never Set", i)
		}
	}
	// Set doubles the vector: a fourth word grows it to four, not three.
	var d BitVec
	d.Set(0)
	d.Set(64)
	if d.Set(128); len(d.w) != 4 {
		t.Fatalf("Set grew to %d words, want 4 (doubling)", len(d.w))
	}
}

// TestBitVecMatchesMap compares against a map[uint32]bool model under a
// random sequence of Set and Has.
func TestBitVecMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	var b BitVec
	model := map[uint32]bool{}
	for op := 0; op < 3000; op++ {
		i := uint32(rng.IntN(512))
		if rng.IntN(3) == 0 {
			b.Set(i)
			model[i] = true
		} else if b.Has(i) != model[i] {
			t.Fatalf("op %d: Has(%d) = %v, want %v", op, i, b.Has(i), model[i])
		}
	}
	for i := uint32(0); i < 600; i++ {
		if b.Has(i) != model[i] {
			t.Fatalf("Has(%d) = %v, want %v", i, b.Has(i), model[i])
		}
	}
}
