package core

// rdag is the reachability dag R of MultiBags+ (§5). Its nodes are the
// attached sets; it explicitly maintains a full transitive closure so that
// "is there a path from A to B" is a single bit test.
//
// Each node stores the bitset of its ancestors (excluding itself) plus a
// successor list. The paper computes a node's closure when the node is
// added; the sync case (Figure 4 lines 35–36) can additionally insert arcs
// between pre-existing nodes, so arc insertion ORs ancestor sets and
// propagates the change along successor lists until it stops changing
// anything. FutureRD represents R as "a vector of bit vectors ...
// reachability is transitively propagated via parallel bit operations".
//
// Here each bit vector is cut into 512-bit chunks that rows share. A row
// is a slice of chunk ids; the chunks live in an append-only slab and are
// never changed once written. A node's first arc gives it a fresh row: a
// copy of its source's row plus the fold chunk, the source's chunk with
// the source's own bit set. Only a row that already holds ancestors runs
// the chunk-by-chunk OR. It settles a zero or equal source chunk in the
// loop and calls union only when both chunks are non-zero and differ;
// union keeps the row's chunk, or takes the source's, whenever one already
// contains the other, so the OR allocates only the chunks an arc really
// changes. The two rows one create_fut makes, and a wavefront tile's
// get-continuation row and the row of the tile above, then share all but
// a chunk or two.
//
// Like the chunk slab, the node table is a list of fixed blocks that never
// move, so adding a node allocates only when its block fills and never
// copies the table. A query is a node-block load, a row load and the
// chunk's bit test.
type rdag struct {
	nodeBlocks []*[blockNodes]rnode
	n          int32 // nodes added
	blocks     []*[blockChunks]chunk
	chunks     int32 // chunks written to the slab, the zero chunk included
	fold       foldMemo
	arcs       uint64
}

// rnode is one node of R: its row of ancestor chunks and its successors.
type rnode struct {
	row  []int32 // row[c]: id of chunk c (bits 512c..512c+511) of the node's ancestors
	succ []int32
}

// foldMemo remembers the last chunk orInto wrote for a source's own bit:
// the same destination chunk, source chunk and source node give the same
// result, so the continuation and future-first rows one create_fut hangs
// under its creator share that chunk too. out is 0 until a chunk is
// written.
type foldMemo struct {
	key foldKey
	out int32
}

type foldKey struct{ dst, src, node int32 }

const (
	chunkWords  = 8
	chunkBits   = 64 * chunkWords
	blockChunks = 512  // 32 KB slab blocks; a small R allocates one
	blockNodes  = 1024 // 48 KB node blocks
)

// chunk is 512 bits of one row. Chunk 0 is the all-zero chunk, so a row
// reads id 0 for any chunk it has no ancestors in.
type chunk [chunkWords]uint64

// addNode creates a new node with no arcs and returns its id.
func (r *rdag) addNode() int32 {
	if r.blocks == nil {
		r.blocks = append(r.blocks, new([blockChunks]chunk))
		r.chunks = 1
	}
	x := r.n
	if int(uint32(x)/blockNodes) == len(r.nodeBlocks) {
		r.nodeBlocks = append(r.nodeBlocks, new([blockNodes]rnode))
	}
	r.n++
	return x
}

// node returns node x. Node blocks never move, so the pointer stays valid
// while later nodes are added.
func (r *rdag) node(x int32) *rnode {
	return &r.nodeBlocks[uint32(x)/blockNodes][uint32(x)%blockNodes]
}

// chunk returns the chunk with the given id. Blocks never move, so the
// pointer stays valid while later chunks are written.
func (r *rdag) chunk(id int32) *chunk {
	return &r.blocks[uint32(id)/blockChunks][uint32(id)%blockChunks]
}

// newChunk writes c to the slab and returns its id.
func (r *rdag) newChunk(c *chunk) int32 {
	id := r.chunks
	if int(uint32(id)/blockChunks) == len(r.blocks) {
		r.blocks = append(r.blocks, new([blockChunks]chunk))
	}
	*r.chunk(id) = *c
	r.chunks++
	return id
}

// addArc inserts arc a → b and restores the transitive closure.
func (r *rdag) addArc(a, b int32) {
	if a == b || r.reaches(a, b) {
		return // already reachable or self arc; closure unchanged
	}
	r.arcs++
	na := r.node(a)
	na.succ = append(na.succ, b)
	r.propagate(b, a)
}

// propagate ORs node src's ancestors plus src itself into node x and, if
// that changed x, recurses along x's successors. Because the dag is
// acyclic and each step only adds bits, this terminates.
func (r *rdag) propagate(x, src int32) {
	if !r.orInto(x, src) {
		return
	}
	for _, s := range r.node(x).succ {
		r.propagate(s, x)
	}
}

// orInto sets row x to row x ∪ row src ∪ {src} and reports whether row x
// changed. A fresh row (x has no ancestors yet) is a copy of src's row
// plus the fold chunk: its chunk bc, the one holding src's own bit, is
// src's chunk with that bit set. The chunk loop runs only for a row that
// already holds ancestors. That row grows at most once, to exactly the
// chunks the result needs. The loop skips a zero source chunk or one equal
// to the row's, and takes the source's chunk where the row's is zero, so
// union is called only when both chunks are non-zero and differ.
func (r *rdag) orInto(x, src int32) bool {
	nx := r.node(x)
	s, d := r.node(src).row, nx.row
	bc := int(uint32(src) / chunkBits)
	changed := false
	if len(d) == 0 {
		d = make([]int32, max(len(s), bc+1))
		copy(d, s)
		d[bc] = 0 // the fold below ORs src's chunk and bit into the zero chunk
		nx.row = d
	} else {
		if n := max(len(s), bc+1); n > len(d) {
			nd := make([]int32, n)
			copy(nd, d)
			d, nx.row = nd, nd
		}
		for c, sid := range s {
			if c == bc || sid == 0 || sid == d[c] {
				continue // bc is folded with src's own bit below
			}
			id := sid
			if d[c] != 0 {
				id = r.union(d[c], sid)
			}
			if id != d[c] {
				d[c] = id
				changed = true
			}
		}
	}
	var sid int32
	if bc < len(s) {
		sid = s[bc]
	}
	key := foldKey{d[bc], sid, src}
	if r.fold.out != 0 && r.fold.key == key {
		d[bc] = r.fold.out
		return true
	}
	sc := *r.chunk(sid)
	sc[uint32(src)%chunkBits/64] |= 1 << (uint32(src) % 64)
	dc := r.chunk(d[bc])
	if !contains(dc, &sc) {
		for i := range sc {
			sc[i] |= dc[i]
		}
		d[bc] = r.newChunk(&sc)
		r.fold = foldMemo{key, d[bc]}
		changed = true
	}
	return changed
}

// union returns the id of a chunk holding chunks did ∪ sid, two distinct
// non-zero chunks: one of the two ids when one contains the other, else a
// new chunk.
func (r *rdag) union(did, sid int32) int32 {
	dc, sc := r.chunk(did), r.chunk(sid)
	if contains(dc, sc) {
		return did
	}
	if contains(sc, dc) {
		return sid
	}
	var u chunk
	for i := range u {
		u[i] = dc[i] | sc[i]
	}
	return r.newChunk(&u)
}

// contains reports whether every bit of b is set in a.
func contains(a, b *chunk) bool {
	for i := range a {
		if b[i]&^a[i] != 0 {
			return false
		}
	}
	return true
}

// reaches reports whether there is a (non-empty) path from a to b.
func (r *rdag) reaches(a, b int32) bool {
	row := r.node(b).row
	c := uint32(a) / chunkBits
	if c >= uint32(len(row)) {
		return false
	}
	return r.chunk(row[c])[uint32(a)%chunkBits/64]&(1<<(uint32(a)%64)) != 0
}

// nodes returns the number of nodes in R.
func (r *rdag) nodes() int { return int(r.n) }

// closureWords returns the 64-bit words held by the transitive closure,
// the "memory required for the reachability matrix R" that the paper
// calls out for small base cases (Figure 8 discussion): the words of every
// chunk written to the slab except the zero chunk, plus the row index at
// two chunk ids per word.
func (r *rdag) closureWords() uint64 {
	var ids uint64
	for x := int32(0); x < r.n; x++ {
		ids += uint64(len(r.node(x).row))
	}
	return uint64(max(r.chunks-1, 0))*chunkWords + (ids+1)/2
}
