package dist_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// sparsifyCfg is the shared depth/seed convenience, aliased for short
// call sites.
func sparsifyCfg(depth int, seed uint64) core.Config {
	return dist.SparsifyDefaults(depth, seed)
}

// runSparsify runs the sparsify job on a spec, failing the test on any
// transport error.
func runSparsify(tb testing.TB, spec dist.TransportSpec, g *graph.Graph, eps, rho float64, depth int, seed uint64) dist.Result[*graph.Graph] {
	tb.Helper()
	res, err := dist.Run(dist.NewEngine(spec, g), dist.SparsifyJob(eps, rho, sparsifyCfg(depth, seed)))
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// runSpanner runs the spanner job on a spec, failing the test on any
// transport error.
func runSpanner(tb testing.TB, spec dist.TransportSpec, g *graph.Graph, k int, seed uint64) dist.Result[*dist.SpannerOutput] {
	tb.Helper()
	res, err := dist.Run(dist.NewEngine(spec, g), dist.SpannerJob(k, seed))
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// shuffledMultigraph is weighted G(n, p) plus a parallel copy, with its
// own weight and reversed endpoints, of every fifth edge on average,
// and five self-loops, the whole edge list permuted. Edge ids then
// follow neither the endpoints nor the generator, so the order in which
// a vertex meets its candidate edges differs between mailboxes, slot
// walks and transports: the input on which a scan-order dependence in
// the spanner's grouping would show.
func shuffledMultigraph(n int, p float64, seed uint64) *graph.Graph {
	edges := gen.WithRandomWeights(gen.Gnp(n, p, seed), 0.1, 10, seed+1).Edges
	r := rng.New(seed + 2)
	for i, m := 0, len(edges); i < m/5; i++ {
		e := edges[r.Intn(m)]
		edges = append(edges, graph.Edge{U: e.V, V: e.U, W: 0.1 + 9.9*r.Float64()})
	}
	for i := 0; i < 5; i++ {
		v := int32(r.Intn(n))
		edges = append(edges, graph.Edge{U: v, V: v, W: 1})
	}
	for i := len(edges) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		edges[i], edges[j] = edges[j], edges[i]
	}
	return graph.FromEdges(n, edges)
}
