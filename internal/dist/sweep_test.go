package dist_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/spanner"
	"repro/internal/stretch"
)

// sweepInput is one enumerated input of TestSmallGraphSweep.
type sweepInput struct {
	name string
	g    *graph.Graph
}

// simpleGraphs returns every labelled simple graph on n vertices, one
// per subset of the vertex pairs (taken in lexicographic order), with
// unit weights or, when weighted, the weight pattern 1, 4, 2, 5, 3 by
// edge id.
func simpleGraphs(n int, weighted bool) []sweepInput {
	var pairs [][2]int32
	for u := int32(0); u < int32(n); u++ {
		for v := u + 1; v < int32(n); v++ {
			pairs = append(pairs, [2]int32{u, v})
		}
	}
	var out []sweepInput
	for mask := 0; mask < 1<<len(pairs); mask++ {
		var edges []graph.Edge
		for i, pr := range pairs {
			if mask&(1<<i) != 0 {
				w := 1.0
				if weighted {
					w = float64(1 + 3*len(edges)%5)
				}
				edges = append(edges, graph.Edge{U: pr[0], V: pr[1], W: w})
			}
		}
		out = append(out, sweepInput{fmt.Sprintf("n=%d/w=%v/mask=%#x", n, weighted, mask), graph.FromEdges(n, edges)})
	}
	return out
}

// multigraphs returns, for every weighted simple graph on n vertices,
// every variant that follows a subset of its edges with a reversed
// parallel copy of another weight, with and without a self-loop on
// vertex 0 as the first edge.
func multigraphs(n int) []sweepInput {
	var out []sweepInput
	for _, in := range simpleGraphs(n, true) {
		m := len(in.g.Edges)
		for dup := 0; dup < 1<<m; dup++ {
			for _, loop := range []bool{false, true} {
				var edges []graph.Edge
				if loop {
					edges = append(edges, graph.Edge{U: 0, V: 0, W: 2})
				}
				for i, e := range in.g.Edges {
					edges = append(edges, e)
					if dup&(1<<i) != 0 {
						edges = append(edges, graph.Edge{U: e.V, V: e.U, W: 1.5*e.W + 0.25})
					}
				}
				out = append(out, sweepInput{fmt.Sprintf("%s/dup=%#x/loop=%v", in.name, dup, loop), graph.FromEdges(n, edges)})
			}
		}
	}
	return out
}

// sameLedger reports whether two ledgers agree on every total and
// phase row, and also on the shard count and the cross-shard split
// when withCross is set.
func sameLedger(a, b dist.Stats, withCross bool) bool {
	if !withCross {
		a.Shards, a.CrossShardMessages, a.CrossShardWords = 0, 0, 0
		b.Shards, b.CrossShardMessages, b.CrossShardWords = 0, 0, 0
	}
	return slices.EqualFunc(a.Phases, b.Phases, func(x, y dist.PhaseStats) bool {
		if !withCross {
			x.CrossShardMessages, x.CrossShardWords = 0, 0
			y.CrossShardMessages, y.CrossShardWords = 0, 0
		}
		return x == y
	}) && a.Rounds == b.Rounds && a.Messages == b.Messages && a.Words == b.Words && a.MaxMessageWords == b.MaxMessageWords &&
		a.Shards == b.Shards && a.CrossShardMessages == b.CrossShardMessages && a.CrossShardWords == b.CrossShardWords
}

// TestSmallGraphSweep checks the round engine on every small input
// instead of at hand-picked points. The inputs are every labelled
// simple graph on one to five vertices, with unit weights and with a
// fixed weight pattern, and every multigraph on one to three vertices
// made from a weighted simple one by reversed parallel copies and a
// self-loop. At seeds 1 and 2, on Mem(), Sharded(2) and Sharded(3):
//   - the spanner job at k = 2 and k = 3 returns spanner.Compute's mask
//     and centers, and every edge has stretch at most 2k−1 over it;
//   - the sparsify job (bundle depth 1, so edges are left to sample)
//     returns core.ParallelSparsify's graph;
//   - every ledger equals Mem()'s, apart from the cross-shard split.
//
// Outside -short, Mesh(2) and Mesh(3) rerun both jobs on every input
// on at most four vertices and must match Sharded(p) at equal P, the
// output and the whole ledger, cross-shard split included.
func TestSmallGraphSweep(t *testing.T) {
	const eps, rho, depth = 0.75, 4.0, 1
	var inputs []sweepInput
	for n := 1; n <= 5; n++ {
		inputs = append(inputs, simpleGraphs(n, false)...)
		inputs = append(inputs, simpleGraphs(n, true)...)
	}
	for n := 1; n <= 3; n++ {
		inputs = append(inputs, multigraphs(n)...)
	}
	meshSpecs := []int{2, 3}
	if testing.Short() {
		meshSpecs = nil // loopback socket runs skipped in -short
	}
	cases := 0
	for _, in := range inputs {
		g, adj := in.g, graph.NewAdjacency(in.g)
		for _, seed := range []uint64{1, 2} {
			for _, k := range []int{2, 3} {
				ref := spanner.Compute(g, adj, nil, spanner.Options{K: k, Seed: seed})
				job := dist.SpannerJob(k, seed)
				var mem dist.Stats
				sharded := map[int]dist.Result[*dist.SpannerOutput]{}
				for _, p := range []int{1, 2, 3} {
					spec := dist.Sharded(p)
					if p == 1 {
						spec = dist.Mem()
					}
					res := sweepRun(t, in.name, spec, g, job)
					if !slices.Equal(res.Output.InSpanner, ref.InSpanner) || !slices.Equal(res.Output.Center, ref.Center) {
						t.Fatalf("%s seed=%d k=%d %v: mask %v centers %v, spanner.Compute %v %v",
							in.name, seed, k, spec, res.Output.InSpanner, res.Output.Center, ref.InSpanner, ref.Center)
					}
					if bad := stretch.VerifySpanner(g, res.Output.InSpanner, float64(2*k-1)); bad != -1 {
						t.Fatalf("%s seed=%d k=%d %v: edge %d stretches beyond %d", in.name, seed, k, spec, bad, 2*k-1)
					}
					if p == 1 {
						mem = res.Stats
					} else if !sameLedger(res.Stats, mem, false) {
						t.Fatalf("%s seed=%d k=%d %v: ledger %+v, Mem() %+v", in.name, seed, k, spec, res.Stats, mem)
					}
					sharded[p] = res
					cases++
				}
				if g.N > 4 {
					continue
				}
				for _, p := range meshSpecs {
					res := sweepRun(t, in.name, dist.Mesh(p).WithTimeout(30*time.Second), g, job)
					want := sharded[p]
					if !slices.Equal(res.Output.InSpanner, want.Output.InSpanner) || !slices.Equal(res.Output.Center, want.Output.Center) ||
						!sameLedger(res.Stats, want.Stats, true) {
						t.Fatalf("%s seed=%d k=%d Mesh(%d): %+v, Sharded(%d) %+v", in.name, seed, k, p, res, p, want)
					}
					cases++
				}
			}
			ref, _, err := core.ParallelSparsify(g, eps, rho, dist.SparsifyDefaults(depth, seed))
			if err != nil {
				t.Fatal(err)
			}
			job := dist.SparsifyJob(eps, rho, dist.SparsifyDefaults(depth, seed))
			var mem dist.Stats
			sharded := map[int]dist.Result[*graph.Graph]{}
			for _, p := range []int{1, 2, 3} {
				spec := dist.Sharded(p)
				if p == 1 {
					spec = dist.Mem()
				}
				res := sweepRun(t, in.name, spec, g, job)
				if res.Output.N != ref.N || !slices.Equal(res.Output.Edges, ref.Edges) {
					t.Fatalf("%s seed=%d sparsify %v: %v, core.ParallelSparsify %v", in.name, seed, spec, res.Output.Edges, ref.Edges)
				}
				if p == 1 {
					mem = res.Stats
				} else if !sameLedger(res.Stats, mem, false) {
					t.Fatalf("%s seed=%d sparsify %v: ledger %+v, Mem() %+v", in.name, seed, spec, res.Stats, mem)
				}
				sharded[p] = res
				cases++
			}
			if g.N > 4 {
				continue
			}
			for _, p := range meshSpecs {
				res := sweepRun(t, in.name, dist.Mesh(p).WithTimeout(30*time.Second), g, job)
				want := sharded[p]
				if !slices.Equal(res.Output.Edges, want.Output.Edges) || !sameLedger(res.Stats, want.Stats, true) {
					t.Fatalf("%s seed=%d sparsify Mesh(%d): %+v, Sharded(%d) %+v", in.name, seed, p, res, p, want)
				}
				cases++
			}
		}
	}
	t.Logf("%d inputs, %d runs", len(inputs), cases)
}

// sweepRun runs job on spec, failing the test on a transport error.
func sweepRun[R any](t *testing.T, name string, spec dist.TransportSpec, g *graph.Graph, job dist.Job[R]) dist.Result[R] {
	t.Helper()
	res, err := dist.Run(dist.NewEngine(spec, g), job)
	if err != nil {
		t.Fatalf("%s %v: %v", name, spec, err)
	}
	return res
}
