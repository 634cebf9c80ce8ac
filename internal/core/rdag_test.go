package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

func TestRdagBasicReachability(t *testing.T) {
	var r rdag
	a := r.addNode()
	b := r.addNode()
	c := r.addNode()
	r.addArc(a, b)
	r.addArc(b, c)
	if !r.reaches(a, b) || !r.reaches(b, c) {
		t.Fatal("direct arcs not reachable")
	}
	if !r.reaches(a, c) {
		t.Fatal("transitive closure not maintained")
	}
	if r.reaches(c, a) || r.reaches(b, a) {
		t.Fatal("reverse reachability reported")
	}
	if r.reaches(a, a) {
		t.Fatal("reaches must be irreflexive (no self paths in R)")
	}
}

func TestRdagSelfAndDuplicateArcs(t *testing.T) {
	var r rdag
	a := r.addNode()
	b := r.addNode()
	r.addArc(a, a) // self arc: ignored
	if r.arcs != 0 {
		t.Fatal("self arc counted")
	}
	r.addArc(a, b)
	r.addArc(a, b) // duplicate: ignored (already reachable)
	if r.arcs != 1 {
		t.Fatalf("arcs = %d, want 1", r.arcs)
	}
	// Arc between already-transitively-connected nodes is also skipped.
	c := r.addNode()
	r.addArc(b, c)
	r.addArc(a, c)
	if r.arcs != 2 {
		t.Fatalf("redundant transitive arc counted: arcs = %d, want 2", r.arcs)
	}
	if !r.reaches(a, c) {
		t.Fatal("reachability lost")
	}
}

// TestRdagLatePropagation inserts an arc whose target already has
// descendants — the sync lines 35–36 case — and checks the closure
// propagates to every descendant.
func TestRdagLatePropagation(t *testing.T) {
	var r rdag
	// Chain b0 → b1 → b2 → b3 built first.
	b := []int32{r.addNode(), r.addNode(), r.addNode(), r.addNode()}
	for i := 0; i+1 < len(b); i++ {
		r.addArc(b[i], b[i+1])
	}
	// New source a, plus its own ancestor x, wired into the chain head.
	x := r.addNode()
	a := r.addNode()
	r.addArc(x, a)
	r.addArc(a, b[0])
	for _, n := range b {
		if !r.reaches(a, n) {
			t.Fatalf("a should reach b%d after late arc", n)
		}
		if !r.reaches(x, n) {
			t.Fatalf("x (a's ancestor) should reach b%d", n)
		}
	}
}

// TestRdagMatchesFloyd compares the incremental closure against
// Floyd-Warshall on random dags (arcs only from lower to higher ids, so
// acyclicity is guaranteed, as in R where arcs respect creation order).
func TestRdagMatchesFloyd(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 99))
		const n = 40
		var r rdag
		for i := 0; i < n; i++ {
			r.addNode()
		}
		reach := [n][n]bool{}
		// Insert random forward arcs in random order.
		for k := 0; k < 120; k++ {
			i := rng.IntN(n - 1)
			j := i + 1 + rng.IntN(n-1-i)
			r.addArc(int32(i), int32(j))
			reach[i][j] = true
		}
		// Floyd-Warshall closure of the model.
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				if !reach[i][k] {
					continue
				}
				for j := 0; j < n; j++ {
					if reach[k][j] {
						reach[i][j] = true
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got := r.reaches(int32(i), int32(j)); got != reach[i][j] {
					t.Fatalf("seed %d: reaches(%d,%d) = %v, want %v",
						seed, i, j, got, reach[i][j])
				}
			}
		}
	}
}

// TestRdagMatchesBFS compares reaches against a BFS closure on random
// dags of about 1,500 nodes, whose ids span several chunks, and checks no
// row ends in the zero chunk. Arcs go in random order, so many land on
// nodes that already have descendants (the sync lines 35–36 case) and
// must propagate through shared chunks; half are short, so long paths
// cross chunk boundaries.
func TestRdagMatchesBFS(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		const n = 1500
		var r rdag
		for i := 0; i < n; i++ {
			r.addNode()
		}
		adj := make([][]int32, n)
		for k := 0; k < 3000; k++ {
			i := rng.IntN(n - 1)
			span := n - 1 - i
			if k%2 == 0 {
				span = min(span, 40)
			}
			j := i + 1 + rng.IntN(span)
			r.addArc(int32(i), int32(j))
			adj[i] = append(adj[i], int32(j))
		}
		// Rows are sized to the chunk of their highest ancestor.
		for x := int32(0); x < r.n; x++ {
			if row := r.node(x).row; len(row) > 0 && row[len(row)-1] == 0 {
				t.Fatalf("seed %d: row %d ends in the zero chunk", seed, x)
			}
		}
		seen := make([]bool, n)
		for probe := 0; probe < 40; probe++ {
			src := int32(rng.IntN(n))
			clear(seen)
			stack := append([]int32(nil), adj[src]...)
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if !seen[v] {
					seen[v] = true
					stack = append(stack, adj[v]...)
				}
			}
			for v := range seen {
				if got := r.reaches(src, int32(v)); got != seen[v] {
					t.Fatalf("seed %d: reaches(%d,%d) = %v, want %v", seed, src, v, got, seen[v])
				}
			}
		}
	}
}

// wavefrontR builds R the way MultiBags+ does for a tiles×tiles general
// wavefront: the main strand creates one future per tile in row-major
// order (create_fut: a continuation node and a future-first node, both
// under the creator), and each tile future gets the tile above and then
// the tile to its left (get_fut: a continuation node under the getter and
// under the gotten future's last node).
func wavefrontR(tiles int) *rdag {
	r := new(rdag)
	cur := r.addNode()
	last := make([]int32, tiles*tiles)
	for i := 0; i < tiles; i++ {
		for j := 0; j < tiles; j++ {
			cont, fut := r.addNode(), r.addNode()
			r.addArc(cur, cont)
			r.addArc(cur, fut)
			cur = cont
			get := func(from int32) {
				g := r.addNode()
				r.addArc(fut, g)
				r.addArc(from, g)
				fut = g
			}
			if i > 0 {
				get(last[(i-1)*tiles+j])
			}
			if j > 0 {
				get(last[i*tiles+j-1])
			}
			last[i*tiles+j] = fut
		}
	}
	return r
}

// TestRdagSharesChunks: on a wavefront-shaped R, rows share their chunks,
// so the closure stays well below the n²/128 words of unshared rows (the
// 49,957 words TestRdagWavefrontPinned pins, against 127,071 here: rows at
// most 8 chunks long still pay about one fresh chunk per node, and the
// saving grows with the row length).
func TestRdagSharesChunks(t *testing.T) {
	r := wavefrontR(32)
	n := uint64(r.nodes())
	unshared := n * n / 128
	if got := r.closureWords(); got > unshared/2 {
		t.Fatalf("closure holds %d words for %d nodes, want at most %d (unshared %d)",
			got, n, unshared/2, unshared)
	}
	// Every node with an arc out reaches the last tile's last node.
	fin := int32(n - 1)
	for x := int32(1); x < fin; x++ {
		if !r.reaches(x, fin) && len(r.node(x).succ) > 0 {
			t.Fatalf("node %d does not reach the last tile's last node", x)
		}
	}
	// The continuation and future-first rows of one create_fut are equal,
	// so they hold the same chunks, the one with the creator's bit too.
	cont, fut := r.addNode(), r.addNode()
	r.addArc(fin, cont)
	r.addArc(fin, fut)
	if rc, rf := r.node(cont).row, r.node(fut).row; !slices.Equal(rc, rf) {
		t.Fatalf("create_fut rows hold different chunks: %v and %v", rc, rf)
	}
}

// TestRdagWavefrontPinned pins the wavefront closure exactly, so an upkeep
// change that writes one chunk more or less fails here. 96 tiles is
// lcs-mbplus's R at bench size (n=768, B=8): 36,673 nodes against the
// workload's 36,674.
func TestRdagWavefrontPinned(t *testing.T) {
	for _, tc := range []struct {
		tiles               int
		chunks, words, arcs uint64
	}{
		{32, 5126, 49957, 6016},
		{96, 49189, 1059301, 54912},
	} {
		r := wavefrontR(tc.tiles)
		if got := uint64(r.chunks); got != tc.chunks {
			t.Errorf("tiles=%d: %d chunks, want %d", tc.tiles, got, tc.chunks)
		}
		if got := r.closureWords(); got != tc.words {
			t.Errorf("tiles=%d: %d closure words, want %d", tc.tiles, got, tc.words)
		}
		if r.arcs != tc.arcs {
			t.Errorf("tiles=%d: %d arcs, want %d", tc.tiles, r.arcs, tc.arcs)
		}
	}

	// A fresh row owns its backing array and holds every chunk id of its
	// source's row except the one with the source's own bit, which is the
	// source's chunk plus that bit.
	r := wavefrontR(32)
	src := int32(r.nodes() - 1)
	s := slices.Clone(r.node(src).row)
	bc := int(uint32(src) / chunkBits)
	if len(s) < 2 || bc >= len(s) {
		t.Fatalf("source row has %d chunks and fold chunk %d; want at least 2 with the fold chunk among them", len(s), bc)
	}
	x := r.addNode()
	r.addArc(src, x)
	d := r.node(x).row
	if &d[0] == &r.node(src).row[0] {
		t.Fatal("fresh row shares its source's backing array")
	}
	if !slices.Equal(r.node(src).row, s) {
		t.Fatalf("adding the fresh row changed its source's row: %v, was %v", r.node(src).row, s)
	}
	if len(d) != len(s) {
		t.Fatalf("fresh row has %d chunks, want %d", len(d), len(s))
	}
	for c := range s {
		if c != bc && d[c] != s[c] {
			t.Fatalf("fresh row chunk %d is %d, want the source's %d", c, d[c], s[c])
		}
	}
	want := *r.chunk(s[bc])
	want[uint32(src)%chunkBits/64] |= 1 << (uint32(src) % 64)
	if *r.chunk(d[bc]) != want {
		t.Fatalf("fresh row's fold chunk %d is not the source's chunk %d plus the source's bit", d[bc], s[bc])
	}
}

func TestRdagClosureWords(t *testing.T) {
	var r rdag
	a := r.addNode()
	bn := r.addNode()
	r.addArc(a, bn)
	if r.closureWords() == 0 {
		t.Fatal("closure reports zero memory")
	}
	if r.nodes() != 2 {
		t.Fatalf("nodes = %d, want 2", r.nodes())
	}
}

// TestRdagAddNodeAllocs: adding a node inside a block allocates nothing;
// only a full block costs an allocation.
func TestRdagAddNodeAllocs(t *testing.T) {
	var r rdag
	r.addNode() // allocates the first node block and chunk slab block
	if a := testing.AllocsPerRun(blockNodes/2, func() { r.addNode() }); a != 0 {
		t.Fatalf("addNode inside a block allocates %v times, want 0", a)
	}
}

// TestRdagNodesStayPut: a node pointer and a row taken before thousands
// more nodes are added still read the same node, so the table never
// moves a node.
func TestRdagNodesStayPut(t *testing.T) {
	var r rdag
	a, b := r.addNode(), r.addNode()
	r.addArc(a, b)
	nb, row := r.node(b), r.node(b).row
	for i := 0; i < 5000; i++ {
		x := r.addNode()
		r.addArc(b, x)
	}
	if r.node(b) != nb {
		t.Fatal("node b moved after later addNode calls")
	}
	if !slices.Equal(nb.row, row) || &nb.row[0] != &row[0] {
		t.Fatalf("node b's row changed: %v, was %v", nb.row, row)
	}
	if len(nb.succ) != 5000 || !r.reaches(a, b) || !r.reaches(a, r.n-1) {
		t.Fatal("node b lost its arcs")
	}
}

func BenchmarkRdagChainInsert(b *testing.B) {
	// Chain-shaped R (the pipeline benchmarks): each insertion ORs the
	// predecessor's ancestor set once — the k² term in its common shape.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var r rdag
		prev := r.addNode()
		for k := 0; k < 1000; k++ {
			n := r.addNode()
			r.addArc(prev, n)
			prev = n
		}
	}
}

func BenchmarkRdagWavefront(b *testing.B) {
	// General-wavefront R (lcs under MultiBags+): create and get arcs over
	// a tiles×tiles grid, the shape whose rows share chunks. 96 tiles is
	// lcs-mbplus's R at bench size (n=768, B=8).
	for _, tiles := range []int{32, 96} {
		b.Run(fmt.Sprintf("tiles=%d", tiles), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				wavefrontR(tiles)
			}
		})
	}
}
