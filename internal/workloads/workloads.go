// Package workloads implements the six benchmarks of the paper's
// evaluation (§6) on top of the public futurerd API: longest common
// subsequence (lcs), Smith-Waterman (sw), divide-and-conquer matrix
// multiplication without temporaries (mm), binary tree merge with
// pipelining (bst, Blelloch & Reid-Miller), Heart Wall tracking
// (heartwall, a synthetic stand-in for the Rodinia kernel), and a dedup
// compression pipeline (dedup, a synthetic stand-in for PARSEC dedup) —
// plus one benchmark beyond the paper: a blocked PageRank power-iteration
// sweep (pagerank) whose strands bulk-read the entire shared rank vector
// every iteration, the read-shared traffic shape the wavefront kernels
// lack.
//
// Each benchmark has a structured-futures variant (single-touch handles,
// creator before getter — detectable with MultiBags) and, except dedup, a
// general-futures variant (multi-touch handles — requiring MultiBags+),
// mirroring the paper's setup. Every instance validates its output against
// a sequential reference implementation, and every workload can inject a
// deliberate race so tests can confirm the detector sees through the
// benchmark's synchronization.
package workloads

import (
	"fmt"

	"futurerd"
)

// Variant selects the future discipline of a workload implementation.
type Variant int

// Variants.
const (
	// StructuredFutures: single-touch, creator precedes getter.
	StructuredFutures Variant = iota
	// GeneralFutures: multi-touch and escaping handles.
	GeneralFutures
)

// String returns the variant name.
func (v Variant) String() string {
	if v == StructuredFutures {
		return "structured"
	}
	return "general"
}

// Instance is one configured benchmark, reusable across runs. Run may be
// invoked under the detection engine, the sequential baseline executor, or
// the parallel scheduler; Validate checks the most recent run's output
// against a sequential reference.
type Instance interface {
	Name() string
	Run(t *futurerd.Task)
	Validate() error
}

// Benchmark couples a name with constructors for its variants; General is
// nil when the paper has a single implementation (dedup).
type Benchmark struct {
	Name       string
	Structured func() Instance
	General    func() Instance
}

// SizeClass scales the default inputs.
type SizeClass int

// Size classes.
const (
	// SizeTest uses tiny inputs for correctness tests (oracle-friendly).
	SizeTest SizeClass = iota
	// SizeQuick uses small inputs so `go test -bench` finishes quickly.
	SizeQuick
	// SizeBench uses the default evaluation inputs (paper-shaped, scaled
	// to finish in seconds under full detection).
	SizeBench
)

// All returns the paper's six benchmarks plus pagerank at the given size.
func All(sz SizeClass) []Benchmark {
	type cfg struct {
		lcsN, lcsB            int
		swN, swB              int
		mmN, mmB              int
		bstN1, bstN2          int
		hwPts, hwFr           int
		dedupChunks           int
		prN, prB, prDeg, prIt int
	}
	c := cfg{
		lcsN: 64, lcsB: 16,
		swN: 24, swB: 8,
		mmN: 16, mmB: 4,
		bstN1: 200, bstN2: 100,
		hwPts: 4, hwFr: 4,
		dedupChunks: 16,
		prN:         96, prB: 24, prDeg: 4, prIt: 3,
	}
	switch sz {
	case SizeQuick:
		c = cfg{
			lcsN: 256, lcsB: 16,
			swN: 64, swB: 8,
			mmN: 64, mmB: 8,
			bstN1: 20000, bstN2: 10000,
			hwPts: 16, hwFr: 6,
			dedupChunks: 64,
			prN:         2048, prB: 256, prDeg: 8, prIt: 4,
		}
	case SizeBench:
		c = cfg{
			lcsN: 1024, lcsB: 32,
			swN: 192, swB: 16,
			mmN: 128, mmB: 16,
			bstN1: 80000, bstN2: 40000,
			hwPts: 64, hwFr: 24,
			dedupChunks: 1024,
			prN:         16384, prB: 1024, prDeg: 8, prIt: 6,
		}
	}
	return []Benchmark{
		{
			Name:       "lcs",
			Structured: func() Instance { return NewLCS(c.lcsN, c.lcsB, StructuredFutures, 1) },
			General:    func() Instance { return NewLCS(c.lcsN, c.lcsB, GeneralFutures, 1) },
		},
		{
			Name:       "sw",
			Structured: func() Instance { return NewSW(c.swN, c.swB, StructuredFutures, 2) },
			General:    func() Instance { return NewSW(c.swN, c.swB, GeneralFutures, 2) },
		},
		{
			Name:       "mm",
			Structured: func() Instance { return NewMM(c.mmN, c.mmB, StructuredFutures, 3) },
			General:    func() Instance { return NewMM(c.mmN, c.mmB, GeneralFutures, 3) },
		},
		{
			Name:       "heartwall",
			Structured: func() Instance { return NewHeartwall(c.hwPts, c.hwFr, StructuredFutures, 4) },
			General:    func() Instance { return NewHeartwall(c.hwPts, c.hwFr, GeneralFutures, 4) },
		},
		{
			Name:       "dedup",
			Structured: func() Instance { return NewDedup(c.dedupChunks, 5) },
		},
		{
			Name: "bst",
			Structured: func() Instance {
				b := NewBST(c.bstN1, c.bstN2, StructuredFutures, 6)
				b.FutDepth = bstDepth(sz)
				return b
			},
			General: func() Instance {
				b := NewBST(c.bstN1, c.bstN2, GeneralFutures, 6)
				b.FutDepth = bstDepth(sz)
				return b
			},
		},
		{
			Name:       "pagerank",
			Structured: func() Instance { return NewPageRank(c.prN, c.prB, c.prDeg, c.prIt, StructuredFutures, 7) },
			General:    func() Instance { return NewPageRank(c.prN, c.prB, c.prDeg, c.prIt, GeneralFutures, 7) },
		},
	}
}

// bstDepth picks bst's pipeline depth per size: at bench scale the tree
// merge is deliberately construct-dense (the paper: bst "has very little
// work per parallel construct").
func bstDepth(sz SizeClass) int {
	if sz == SizeBench {
		return 11
	}
	return 8
}

// Lookup returns the benchmark with the given name.
func Lookup(name string, sz SizeClass) (Benchmark, error) {
	for _, b := range All(sz) {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// splitmix64 is the deterministic value generator used for synthetic
// inputs: no global state, identical across runs and platforms.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
