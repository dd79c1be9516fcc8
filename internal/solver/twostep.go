// Package solver implements the Peng–Spielman parallel framework for
// solving SDD linear systems (Section 4 of the paper): the two-step
// reduction M = D − A  →  M̃ = D − A·D⁻¹·A, the approximate inverse
// chain built by alternating that reduction with PARALLELSPARSIFY, the
// chain-preconditioned conjugate gradient front end (Theorem 6), and a
// Gremban reduction from general SDD matrices to Laplacians.
package solver

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/parutil"
	"repro/internal/rng"
)

// TwoStepOptions controls the construction of the two-step graph.
type TwoStepOptions struct {
	// ExactDegree: vertices with degree ≤ ExactDegree expand their
	// clique exactly; higher-degree vertices are sampled. Default 16.
	ExactDegree int
	// SampleFactor: a sampled vertex of degree d contributes
	// ⌈SampleFactor·d⌉ Monte-Carlo clique edges. Default 8. This is the
	// role played by Corollary 6.4 of Peng–Spielman (replace the
	// distance-2 cliques by sparse spectral surrogates): the surrogate
	// here is an unbiased sample whose spectral error is absorbed by the
	// sparsification round that follows.
	SampleFactor float64
	Seed         uint64
}

func (o TwoStepOptions) exactDegree() int {
	if o.ExactDegree <= 0 {
		return 16
	}
	return o.ExactDegree
}

func (o TwoStepOptions) sampleFactor() float64 {
	if o.SampleFactor <= 0 {
		return 8
	}
	return o.SampleFactor
}

// TwoStep returns the graph whose Laplacian is D − A·D⁻¹·A, where
// D and A are the degree diagonal and adjacency of g. Algebraically
// this is the union, over every vertex k, of a clique on k's neighbors
// with pair weights w_ik·w_jk/d_k (row sums check out to the original
// degrees, so the result is again a Laplacian). Parallel edges from
// overlapping cliques are merged.
func TwoStep(g *graph.Graph, opt TwoStepOptions) *graph.Graph {
	n := g.N
	adj := graph.NewAdjacency(g)
	deg := g.WeightedDegrees()
	exactDeg := opt.exactDegree()
	sampleF := opt.sampleFactor()

	perVertex := parutil.CollectShards(n, func(_ int, lo, hi int) [][]graph.Edge {
		var all [][]graph.Edge
		for vi := lo; vi < hi; vi++ {
			k := int32(vi)
			loS, hiS := adj.Range(k)
			d := int(hiS - loS)
			if d < 2 || deg[k] <= 0 {
				continue
			}
			nbrs := make([]int32, 0, d)
			ws := make([]float64, 0, d)
			for s := loS; s < hiS; s++ {
				u := adj.Nbr[s]
				if u == k {
					continue
				}
				nbrs = append(nbrs, u)
				ws = append(ws, g.Edges[adj.EID[s]].W)
			}
			if len(nbrs) < 2 {
				continue
			}
			var out []graph.Edge
			if len(nbrs) <= exactDeg {
				out = exactClique(nbrs, ws, deg[k])
			} else {
				out = sampledClique(nbrs, ws, deg[k], sampleF, opt.Seed, uint64(k))
			}
			if len(out) > 0 {
				all = append(all, out)
			}
		}
		return all
	})
	total := 0
	for _, block := range perVertex {
		total += len(block)
	}
	edges := make([]graph.Edge, 0, total)
	for _, block := range perVertex {
		edges = append(edges, block...)
	}
	return graph.FromEdges(n, edges).Canonical()
}

// exactClique emits all pairs (i, j) with weight w_i·w_j/d.
func exactClique(nbrs []int32, ws []float64, d float64) []graph.Edge {
	var out []graph.Edge
	for i := 0; i < len(nbrs); i++ {
		for j := i + 1; j < len(nbrs); j++ {
			if nbrs[i] == nbrs[j] {
				continue // parallel edges to the same neighbor collapse later
			}
			out = append(out, graph.Edge{U: nbrs[i], V: nbrs[j], W: ws[i] * ws[j] / d})
		}
	}
	return out
}

// sampledClique draws s = ⌈factor·deg⌉ unordered pairs with probability
// proportional to w_i·w_j and assigns each the weight C/s, where C is
// the total clique weight — an unbiased Monte-Carlo estimate of the
// exact clique Laplacian.
func sampledClique(nbrs []int32, ws []float64, d float64, factor float64, seed, salt uint64) []graph.Edge {
	degCount := len(nbrs)
	s := int(factor*float64(degCount)) + 1
	// Total clique weight C = (d² − Σw_i²)/(2d).
	sumSq := 0.0
	for _, w := range ws {
		sumSq += w * w
	}
	c := (d*d - sumSq) / (2 * d)
	if c <= 0 {
		return nil
	}
	// CDF over neighbors for w-proportional draws.
	cdf := make([]float64, degCount)
	acc := 0.0
	for i, w := range ws {
		acc += w / d
		cdf[i] = acc
	}
	r := rng.SplitAt(seed^0x8ad6e01899f1a2b7, salt)
	per := c / float64(s)
	out := make([]graph.Edge, 0, s)
	for t := 0; t < s; t++ {
		// Rejection-sample until the endpoints differ; acceptance is
		// ≥ 1/2 whenever no single neighbor holds more than half the
		// weight, and the loop is bounded for safety.
		var i, j int
		ok := false
		for attempt := 0; attempt < 64; attempt++ {
			i = drawCDF(cdf, r.Float64())
			j = drawCDF(cdf, r.Float64())
			if nbrs[i] != nbrs[j] {
				ok = true
				break
			}
		}
		if !ok {
			continue
		}
		out = append(out, graph.Edge{U: nbrs[i], V: nbrs[j], W: per})
	}
	return out
}

func drawCDF(cdf []float64, u float64) int {
	idx := sort.SearchFloat64s(cdf, u)
	if idx >= len(cdf) {
		idx = len(cdf) - 1
	}
	return idx
}
