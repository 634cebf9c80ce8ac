package core

import (
	"math/rand/v2"
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

// TestRdagRowsExact: closure rows are sized to their highest ancestor, so
// no row ends in a zero word (a row with no ancestors holds no words).
// Arcs go in random order over ids spread across several words, so rows
// grow both from a source's wider row and from the source's own bit.
func TestRdagRowsExact(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		const n = 300
		var r rdag
		for i := 0; i < n; i++ {
			r.addNode()
		}
		for k := 0; k < 400; k++ {
			i := rng.IntN(n - 1)
			r.addArc(int32(i), int32(i+1+rng.IntN(n-1-i)))
		}
		for x, row := range r.anc {
			w := row.Words()
			if w == 0 {
				continue
			}
			top := false
			for bit := uint32(64 * (w - 1)); bit < uint32(64*w); bit++ {
				top = top || row.Has(bit)
			}
			if !top {
				t.Fatalf("seed %d: row %d (%d words, %d ancestors) ends in a zero word", seed, x, w, row.Count())
			}
		}
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
