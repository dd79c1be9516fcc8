package main

import (
	"runtime"
	"time"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/spanner"
)

// The sparsifier settings the benchmark runs Algorithm 2 at: eps=0.5,
// rho=4 (two sampling rounds), bundle depth 2.
const (
	sparsifyEps = 0.5
	sparsifyRho = 4
	bundleDepth = 2
)

// probeReps is how many times a traced run repeats each probe call; it
// reports the median.
const probeReps = 3

// timeMedian runs fn reps times under a span each and returns the median
// wall-clock in seconds.
func timeMedian(tr *tracer, parent int, layer, name string, reps int, fn func()) float64 {
	var xs []float64
	for i := 0; i < reps; i++ {
		runtime.GC() // as timeOp does
		_, end := tr.begin(parent, layer, name)
		start := time.Now()
		fn()
		xs = append(xs, time.Since(start).Seconds())
		end()
	}
	return median(xs)
}

// probeGraph times the graph, spanner and bundle layers on g, from
// outside: the calls core.ParallelSample makes on its input, one layer
// at a time.
func (b *bench) probeGraph(g *graph.Graph, seed uint64) {
	pid, end := b.tr.begin(0, "bench", "probe graph layers")
	defer end()
	var adj *graph.Adjacency
	b.vals["graph.adjacency_s"] = timeMedian(b.tr, pid, "graph", "graph.NewAdjacency", probeReps, func() {
		adj = graph.NewAdjacency(g)
	})
	b.vals["graph.partition_s"] = timeMedian(b.tr, pid, "graph", "graph.PartitionOf x2", probeReps, func() {
		for s := 0; s < 2; s++ {
			graph.PartitionOf(g, s, 2)
		}
	})
	var sp *spanner.Result
	b.vals["spanner.compute_s"] = timeMedian(b.tr, pid, "spanner", "spanner.Compute", probeReps, func() {
		sp = spanner.Compute(g, adj, nil, spanner.Options{Seed: seed})
	})
	b.vals["spanner.edges"] = float64(graph.CountTrue(sp.InSpanner))
	var bu *bundle.Result
	b.vals["bundle.compute_s"] = timeMedian(b.tr, pid, "bundle", "bundle.Compute", probeReps, func() {
		bu = bundle.Compute(g, adj, nil, bundle.Options{T: bundleDepth, Seed: seed ^ core.BundleSeedMix})
	})
	b.vals["bundle.edges"] = float64(graph.CountTrue(bu.InBundle))
}

// recordCore keeps the counters of one core.ParallelSparsify call.
func (b *bench) recordCore(allocBytes float64, st *core.SparsifyStats) {
	b.vals["core.alloc_mb"] = allocBytes / 1e6
	if st != nil {
		b.vals["core.rounds"] = float64(len(st.Rounds))
		b.vals["core.out_edges"] = float64(st.OutputEdges)
	}
}

// sameEdges reports whether two edge lists are identical, edge for edge.
func sameEdges(a, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
