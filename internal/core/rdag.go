package core

import "futurerd/internal/ds"

// rdag is the reachability dag R of MultiBags+ (§5). Its nodes are the
// attached sets; it explicitly maintains a full transitive closure so that
// "is there a path from A to B" is a single bit test.
//
// Each node stores the bitset of its ancestors (excluding itself) plus a
// successor list. The paper computes a node's closure when the node is
// added; the sync case (Figure 4 lines 35–36) can additionally insert arcs
// between pre-existing nodes, so arc insertion ORs ancestor sets and
// propagates the change along successor lists until it stops changing
// anything. FutureRD represents R exactly this way: "a vector of bit
// vectors ... reachability is transitively propagated via parallel bit
// operations".
type rdag struct {
	anc  []*ds.BitVec
	succ [][]int32
	arcs uint64
}

// addNode creates a new node with no arcs and returns its id.
func (r *rdag) addNode() int32 {
	r.anc = append(r.anc, new(ds.BitVec))
	r.succ = append(r.succ, nil)
	return int32(len(r.anc) - 1)
}

// addArc inserts arc a → b and restores the transitive closure.
func (r *rdag) addArc(a, b int32) {
	if a == b || r.anc[b].Has(uint32(a)) {
		return // already reachable or self arc; closure unchanged
	}
	r.arcs++
	r.succ[a] = append(r.succ[a], b)
	r.propagate(b, a)
}

// propagate ORs node src's ancestors plus src itself into node x and, if
// that changed x, recurses along x's successors. Because the dag is
// acyclic and each step only adds bits, this terminates.
func (r *rdag) propagate(x, src int32) {
	if !r.anc[x].OrWithBit(r.anc[src], uint32(src)) {
		return
	}
	for _, s := range r.succ[x] {
		r.propagate(s, x)
	}
}

// reaches reports whether there is a (non-empty) path from a to b.
func (r *rdag) reaches(a, b int32) bool { return r.anc[b].Has(uint32(a)) }

// nodes returns the number of nodes in R.
func (r *rdag) nodes() int { return len(r.anc) }

// closureWords returns the total number of 64-bit words held by the
// transitive closure, the "memory required for the reachability matrix R"
// that the paper calls out for small base cases (Figure 8 discussion).
func (r *rdag) closureWords() uint64 {
	var n uint64
	for _, a := range r.anc {
		n += uint64(a.Words())
	}
	return n
}
