// Package graph defines the weighted undirected graph representation
// shared by every algorithm in this repository, together with the graph
// algebra the paper uses (G1 + G2, a·G, G − H as an edge mask) and basic
// structural queries.
//
// A Graph is an immutable vertex count plus a flat edge list. Algorithms
// that need neighborhood access build a CSR Adjacency explicitly; those
// that peel edge subsets (bundle construction, sampling) work with
// boolean edge masks over the original edge list so that no edges are
// copied until a final Subgraph call materializes the result.
package graph

import (
	"fmt"
	"math"
	"slices"
)

// Edge is an undirected weighted edge. Endpoints are vertex indices in
// [0, N); W must be positive for all spectral routines (a Laplacian with
// negative weights is not SDD).
type Edge struct {
	U, V int32
	W    float64
}

// Resistance returns the resistive length 1/W of the edge, the metric in
// which the paper measures stretch.
func (e Edge) Resistance() float64 { return 1 / e.W }

// Graph is a weighted undirected graph with a fixed vertex set
// {0, ..., N-1} and an edge list. Parallel edges and self-loops are
// permitted by the representation (graph sums create parallel edges);
// Canonical merges them when a simple graph is required.
type Graph struct {
	N     int
	Edges []Edge
}

// New returns a graph with n vertices and no edges.
func New(n int) *Graph {
	return &Graph{N: n}
}

// MaxEdges is the largest edge count any graph, adjacency view, or
// partition may hold: edge ids travel as int32 throughout the system
// (CSR EID slots, distributed message ports, wire frames, partition
// files), so every id in [0, m) must fit in an int32. The guard lives
// here — not in each consumer — so the overflow is caught where the id
// space is created rather than where some int32(i) silently wraps.
const MaxEdges = math.MaxInt32

// checkEdgeIDs panics if an edge-id space of size m cannot be indexed
// by int32.
func checkEdgeIDs(m int) {
	if m > MaxEdges {
		panic(fmt.Sprintf("graph: %d edges exceed the int32 edge-id space (max %d)", m, MaxEdges))
	}
}

// FromEdges builds a graph over n vertices with the given edges. The
// edge slice is used directly (not copied).
func FromEdges(n int, edges []Edge) *Graph {
	checkEdgeIDs(len(edges))
	return &Graph{N: n, Edges: edges}
}

// M returns the number of edges.
func (g *Graph) M() int { return len(g.Edges) }

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	edges := make([]Edge, len(g.Edges))
	copy(edges, g.Edges)
	return &Graph{N: g.N, Edges: edges}
}

// Validate checks structural invariants: endpoints in range and strictly
// positive finite weights. It returns the first violation found.
func (g *Graph) Validate() error {
	if g.N < 0 {
		return fmt.Errorf("graph: negative vertex count %d", g.N)
	}
	for i, e := range g.Edges {
		if e.U < 0 || int(e.U) >= g.N || e.V < 0 || int(e.V) >= g.N {
			return fmt.Errorf("graph: edge %d (%d,%d) out of range [0,%d)", i, e.U, e.V, g.N)
		}
		if !(e.W > 0) || math.IsInf(e.W, 0) {
			return fmt.Errorf("graph: edge %d has non-positive or non-finite weight %v", i, e.W)
		}
	}
	return nil
}

// TotalWeight returns the sum of edge weights.
func (g *Graph) TotalWeight() float64 {
	s := 0.0
	for _, e := range g.Edges {
		s += e.W
	}
	return s
}

// WeightedDegrees returns the weighted degree of every vertex
// (self-loops contribute twice, consistent with L = D − A having zero
// row sums only for loop-free graphs; spectral code canonicalizes first).
func (g *Graph) WeightedDegrees() []float64 {
	deg := make([]float64, g.N)
	for _, e := range g.Edges {
		deg[e.U] += e.W
		if e.U != e.V {
			deg[e.V] += e.W
		} else {
			deg[e.U] += e.W
		}
	}
	return deg
}

// Degrees returns the unweighted degree (incident edge count) of every
// vertex.
func (g *Graph) Degrees() []int {
	deg := make([]int, g.N)
	for _, e := range g.Edges {
		deg[e.U]++
		if e.V != e.U {
			deg[e.V]++
		}
	}
	return deg
}

// Scale returns a·g: the same topology with all weights multiplied by a.
func (g *Graph) Scale(a float64) *Graph {
	out := g.Clone()
	for i := range out.Edges {
		out.Edges[i].W *= a
	}
	return out
}

// Add returns the graph sum g + h (same vertex set required): the
// concatenation of the edge lists, which is exactly Laplacian addition.
func Add(g, h *Graph) *Graph {
	if g.N != h.N {
		panic(fmt.Sprintf("graph: Add dimension mismatch %d vs %d", g.N, h.N))
	}
	edges := make([]Edge, 0, len(g.Edges)+len(h.Edges))
	edges = append(edges, g.Edges...)
	edges = append(edges, h.Edges...)
	return &Graph{N: g.N, Edges: edges}
}

// Canonical returns a simple graph spectrally identical to g: parallel
// edges merged by weight summation (resistors in parallel under the
// Laplacian view add conductances), self-loops dropped (a self-loop has
// the zero Laplacian), endpoints ordered U < V, and edges sorted by
// (U, V). It runs in O(n + m): two stable counting passes, by the
// larger endpoint and then by the smaller, leave equal pairs in
// edge-list order, so each merged weight is summed in that order.
func (g *Graph) Canonical() *Graph {
	sorted := byEndpoint(g.N, byEndpoint(g.N, g.Edges, true), false)
	merged := sorted[:0]
	for _, e := range sorted {
		if k := len(merged) - 1; k >= 0 && merged[k].U == e.U && merged[k].V == e.V {
			merged[k].W += e.W
		} else {
			e.W = 0 + e.W // every sum starts from +0, so a lone −0 merges to +0
			merged = append(merged, e)
		}
	}
	return &Graph{N: g.N, Edges: slices.Clone(merged)}
}

// byEndpoint returns the non-loop edges of src, oriented U < V, in a
// stable counting sort by V (larger) or by U: buildAdjacency's count,
// prefix-sum and cursor idiom.
func byEndpoint(n int, src []Edge, larger bool) []Edge {
	key := func(e Edge) int32 {
		if larger {
			return max(e.U, e.V)
		}
		return min(e.U, e.V)
	}
	start := make([]int32, n+1)
	for _, e := range src {
		if e.U != e.V {
			start[key(e)+1]++
		}
	}
	for i := 1; i <= n; i++ {
		start[i] += start[i-1]
	}
	out := make([]Edge, start[n])
	for _, e := range src {
		if e.U != e.V {
			k := key(e)
			e.U, e.V = min(e.U, e.V), max(e.U, e.V)
			out[start[k]] = e
			start[k]++
		}
	}
	return out
}

// Subgraph materializes the edges for which keep[i] is true.
func (g *Graph) Subgraph(keep []bool) *Graph {
	if len(keep) != len(g.Edges) {
		panic("graph: Subgraph mask length mismatch")
	}
	var edges []Edge
	for i, e := range g.Edges {
		if keep[i] {
			edges = append(edges, e)
		}
	}
	return &Graph{N: g.N, Edges: edges}
}

// EdgeIndices returns the indices set in mask, in increasing order.
func EdgeIndices(mask []bool) []int {
	var idx []int
	for i, b := range mask {
		if b {
			idx = append(idx, i)
		}
	}
	return idx
}

// CountTrue returns the number of set entries in mask.
func CountTrue(mask []bool) int {
	c := 0
	for _, b := range mask {
		if b {
			c++
		}
	}
	return c
}

// MinWeight and MaxWeight return the extreme edge weights; both return
// ok=false on an empty graph.
func (g *Graph) MinWeight() (float64, bool) {
	if len(g.Edges) == 0 {
		return 0, false
	}
	m := g.Edges[0].W
	for _, e := range g.Edges[1:] {
		if e.W < m {
			m = e.W
		}
	}
	return m, true
}

// MaxWeight returns the largest edge weight.
func (g *Graph) MaxWeight() (float64, bool) {
	if len(g.Edges) == 0 {
		return 0, false
	}
	m := g.Edges[0].W
	for _, e := range g.Edges[1:] {
		if e.W > m {
			m = e.W
		}
	}
	return m, true
}

// String implements fmt.Stringer with a short structural summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.N, len(g.Edges))
}
