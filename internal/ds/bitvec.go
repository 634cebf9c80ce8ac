package ds

const wordBits = 64

// BitVec is a growable bit vector. The zero value is an empty vector ready
// to use. UnionFind keeps the set of registered elements in one.
type BitVec struct {
	w []uint64
}

// grow lengthens b to at least words words, doubling so that a vector
// grown bit by bit (UnionFind.present) reallocates O(log n) times.
func (b *BitVec) grow(words int) {
	if words <= len(b.w) {
		return
	}
	nw := make([]uint64, max(words, 2*len(b.w)))
	copy(nw, b.w)
	b.w = nw
}

// Set sets bit i.
func (b *BitVec) Set(i uint32) {
	wi := int(i / wordBits)
	b.grow(wi + 1)
	b.w[wi] |= 1 << (i % wordBits)
}

// Has reports whether bit i is set.
func (b *BitVec) Has(i uint32) bool {
	wi := int(i / wordBits)
	return wi < len(b.w) && b.w[wi]&(1<<(i%wordBits)) != 0
}
