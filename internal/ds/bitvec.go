package ds

import "math/bits"

const wordBits = 64

// BitVec is a growable bit vector. The zero value is an empty vector ready
// to use. It is the building block for the reachability matrix R in
// MultiBags+: each attached set keeps the bitset of its ancestors, and
// transitive-closure maintenance is word-parallel OR (the paper's
// "reachability is transitively propagated via parallel bit operations").
type BitVec struct {
	w []uint64
}

// grow lengthens b to at least words words, doubling so that a vector
// grown bit by bit (UnionFind.present) reallocates O(log n) times.
func (b *BitVec) grow(words int) {
	if words <= len(b.w) {
		return
	}
	b.resize(max(words, 2*len(b.w)))
}

// resize lengthens b to exactly words words.
func (b *BitVec) resize(words int) {
	nw := make([]uint64, words)
	copy(nw, b.w)
	b.w = nw
}

// Set sets bit i.
func (b *BitVec) Set(i uint32) {
	wi := int(i / wordBits)
	b.grow(wi + 1)
	b.w[wi] |= 1 << (i % wordBits)
}

// Clear clears bit i.
func (b *BitVec) Clear(i uint32) {
	wi := int(i / wordBits)
	if wi < len(b.w) {
		b.w[wi] &^= 1 << (i % wordBits)
	}
}

// Has reports whether bit i is set.
func (b *BitVec) Has(i uint32) bool {
	wi := int(i / wordBits)
	return wi < len(b.w) && b.w[wi]&(1<<(i%wordBits)) != 0
}

// Or sets b = b ∪ o and reports whether b changed. The "changed" result
// drives the propagation cut-off when inserting arcs into R.
func (b *BitVec) Or(o *BitVec) bool {
	b.grow(len(o.w))
	changed := false
	for i, ow := range o.w {
		if ow&^b.w[i] != 0 {
			b.w[i] |= ow
			changed = true
		}
	}
	return changed
}

// OrWithBit sets b = b ∪ o ∪ {bit} and reports whether b changed.
// It is the inner step of R arc insertion: the target's ancestor set
// absorbs the source's ancestors plus the source itself. b grows at most
// once, to exactly the words the result needs, so a vector built only by
// OrWithBit from such vectors never ends in a zero word.
func (b *BitVec) OrWithBit(o *BitVec, bit uint32) bool {
	wi := int(bit / wordBits)
	if n := max(len(o.w), wi+1); n > len(b.w) {
		b.resize(n)
	}
	changed := b.Or(o)
	if m := uint64(1) << (bit % wordBits); b.w[wi]&m == 0 {
		b.w[wi] |= m
		changed = true
	}
	return changed
}

// Count returns the number of set bits.
func (b *BitVec) Count() int {
	n := 0
	for _, w := range b.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// Words returns the number of allocated 64-bit words, used to report the
// memory footprint of R in the benchmark harness.
func (b *BitVec) Words() int { return len(b.w) }

// Reset clears all bits, retaining capacity.
func (b *BitVec) Reset() {
	for i := range b.w {
		b.w[i] = 0
	}
}

// ForEach calls fn for every set bit in ascending order.
func (b *BitVec) ForEach(fn func(uint32)) {
	for wi, w := range b.w {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(uint32(wi*wordBits + tz))
			w &= w - 1
		}
	}
}
