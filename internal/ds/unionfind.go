// Package ds provides the low-level data structure shared by the race
// detection algorithms: Tarjan's fast disjoint-set structure. It is
// single-goroutine: the detection pipeline applies and queries the
// reachability relation on one goroutine at a time.
package ds

// UnionFind is a disjoint-set forest over dense uint32 element ids with
// union by rank and path compression (Tarjan 1975). All operations run in
// amortized O(α(m,n)) time, the bound the paper's Theorems 4.1 and 5.1
// rely on.
//
// Elements must be added with MakeSet before use, each exactly once. The
// structure grows on demand; ids need not be contiguous but dense ids
// keep memory tight.
type UnionFind struct {
	parent []uint32
	rank   []uint8

	sets   int
	finds  uint64
	unions uint64
}

// NewUnionFind returns an empty structure with capacity hint n.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{}
	if n < 1 {
		n = 1
	}
	u.grow(n)
	return u
}

func (u *UnionFind) grow(n int) {
	if n <= len(u.parent) {
		return
	}
	if c := 2 * len(u.parent); n < c {
		n = c
	}
	p := make([]uint32, n)
	copy(p, u.parent)
	r := make([]uint8, n)
	copy(r, u.rank)
	u.parent, u.rank = p, r
}

// MakeSet registers x, which must not be registered yet, as a singleton
// set. Every caller names a fresh function, strand or element id.
func (u *UnionFind) MakeSet(x uint32) {
	u.grow(int(x) + 1)
	u.parent[x] = x
	u.rank[x] = 0
	u.sets++
}

// Find returns the canonical representative of the set containing x,
// compressing the path as it goes.
func (u *UnionFind) Find(x uint32) uint32 {
	u.finds++
	// Iterative two-pass path compression: find the root, then repoint.
	root := x
	for u.parent[root] != root {
		root = u.parent[root]
	}
	for x != root {
		next := u.parent[x]
		u.parent[x] = root
		x = next
	}
	return root
}

// Union merges the sets containing a and b and returns the new root.
// If they are already in the same set, the common root is returned.
// Which of the two old roots becomes the new root is decided by rank;
// callers that attach per-root payloads must fix the payload up after
// Union (see the reach package).
func (u *UnionFind) Union(a, b uint32) uint32 {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return ra
	}
	u.unions++
	u.sets--
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	return ra
}

// SameSet reports whether a and b are currently in the same set.
func (u *UnionFind) SameSet(a, b uint32) bool { return u.Find(a) == u.Find(b) }

// Sets returns the current number of disjoint sets.
func (u *UnionFind) Sets() int { return u.sets }

// Ops returns the number of Find and Union operations performed, used by
// the benchmark harness to report data-structure traffic.
func (u *UnionFind) Ops() (finds, unions uint64) {
	return u.finds, u.unions
}
