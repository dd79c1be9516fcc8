package graph

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// canonicalMap is the map-and-sort form Canonical had before it became
// two counting passes: the reference its output must match bit for bit.
func canonicalMap(g *Graph) *Graph {
	type key struct{ u, v int32 }
	acc := make(map[key]float64, len(g.Edges))
	for _, e := range g.Edges {
		if e.U == e.V {
			continue
		}
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		acc[key{u, v}] += e.W
	}
	edges := make([]Edge, 0, len(acc))
	for k, w := range acc {
		edges = append(edges, Edge{U: k.u, V: k.v, W: w})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	return &Graph{N: g.N, Edges: edges}
}

func sameBits(t *testing.T, name string, got, want *Graph) {
	t.Helper()
	if got.N != want.N || len(got.Edges) != len(want.Edges) {
		t.Fatalf("%s: got n=%d m=%d, want n=%d m=%d", name, got.N, len(got.Edges), want.N, len(want.Edges))
	}
	for i, e := range got.Edges {
		w := want.Edges[i]
		if e.U != w.U || e.V != w.V || math.Float64bits(e.W) != math.Float64bits(w.W) {
			t.Fatalf("%s: edge %d is %+v (bits %#x), want %+v (bits %#x)",
				name, i, e, math.Float64bits(e.W), w, math.Float64bits(w.W))
		}
	}
}

// TestCanonicalMatchesMapReference enumerates seeded multigraphs on 1 to
// 64 vertices: dense parallel edges in both orientations, self-loops,
// and weights whose sum depends on the order it is taken in (1e16, 1,
// −1e16) or on the sign of zero. Canonical must equal the map form bit
// for bit, so each merged weight is summed in edge-list order from +0.
func TestCanonicalMatchesMapReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	weights := []float64{1e16, 1, -1e16, negZero, 0.1, 3}
	check := func(name string, g *Graph) {
		t.Helper()
		sameBits(t, name, g.Canonical(), canonicalMap(g))
	}
	check("n=0", New(0))
	check("edge-free", New(7))
	check("lone -0", FromEdges(2, []Edge{{U: 1, V: 0, W: negZero}}))
	check("loops only", FromEdges(3, []Edge{{U: 2, V: 2, W: 1}, {U: 0, V: 0, W: negZero}}))
	for n := 1; n <= 64; n++ {
		for seed := uint64(0); seed < 4; seed++ {
			r := rng.New(uint64(n)<<8 | seed)
			// Endpoints drawn from a window of 2, 4 or 8 vertices keep
			// the pairs few and the parallel runs long; the fourth seed
			// draws from every vertex.
			span := min(n, 2<<seed)
			if seed == 3 {
				span = n
			}
			base := r.Intn(n - span + 1)
			m := r.Intn(4*n + 1)
			edges := make([]Edge, m)
			for i := range edges {
				edges[i] = Edge{
					U: int32(base + r.Intn(span)),
					V: int32(base + r.Intn(span)),
					W: weights[r.Intn(len(weights))],
				}
			}
			check("enumerated", FromEdges(n, edges))
		}
	}
}
