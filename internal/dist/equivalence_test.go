package dist_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
)

// The cross-transport equivalence matrix: ONE table sweeping every
// TransportSpec — Mem as the reference, then {Sharded, Net + Worker
// fleet, Mesh} × shards {1, 2, 3, 7} — over both built-in jobs and
// representative graphs, asserting edge-identical outputs and an
// identical Stats ledger everywhere through the single Engine.Run
// entry point. The net column drives the multi-process specs
// themselves (a Net coordinator plus Worker engines on partition
// views, as cmd/distworker does) inside the test process; the mesh
// column drives the in-process Mesh scaffold; both run the one network
// data plane. This is the single readable pin of the package's central
// invariant — transports move messages, not decisions — and it is what
// proves the Engine/Job refactor behavior-preserving: the expected
// values are the same in-memory references the pre-Engine
// per-transport entry points were pinned against.
func TestCrossTransportEquivalenceMatrix(t *testing.T) {
	const eps, rho = 0.75, 4.0
	seeds := []uint64{11, 42} // seed-derived state must agree at every seed, not one lucky one
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", gen.Gnp(240, 0.1, 7)},
		{"weighted-grid", gen.WithRandomWeights(gen.Grid2D(12, 15), 0.1, 10, 9)},
		{"barbell", gen.Barbell(25, 4)},
	}
	shardCounts := []int{1, 2, 3, 7}

	sameStats := func(t *testing.T, got, want dist.Stats) {
		t.Helper()
		if got.Rounds != want.Rounds || got.Messages != want.Messages ||
			got.Words != want.Words || got.MaxMessageWords != want.MaxMessageWords {
			t.Fatalf("ledger totals diverge:\n got %+v\nwant %+v", got, want)
		}
		if len(got.Phases) != len(want.Phases) {
			t.Fatalf("phase count %d vs %d", len(got.Phases), len(want.Phases))
		}
		for i, ph := range got.Phases {
			rp := want.Phases[i]
			if ph.Name != rp.Name || ph.Rounds != rp.Rounds ||
				ph.Messages != rp.Messages || ph.Words != rp.Words {
				t.Fatalf("phase %q diverges: %+v vs %+v", ph.Name, ph, rp)
			}
		}
	}
	sameSpanner := func(t *testing.T, got, want dist.Result[*dist.SpannerOutput]) {
		t.Helper()
		if got.Output.K != want.Output.K {
			t.Fatalf("K %d != %d", got.Output.K, want.Output.K)
		}
		for i := range want.Output.InSpanner {
			if got.Output.InSpanner[i] != want.Output.InSpanner[i] {
				t.Fatalf("edge %d: in-spanner %v vs %v", i, got.Output.InSpanner[i], want.Output.InSpanner[i])
			}
		}
		for v := range want.Output.Center {
			if got.Output.Center[v] != want.Output.Center[v] {
				t.Fatalf("center[%d] %d vs %d", v, got.Output.Center[v], want.Output.Center[v])
			}
		}
		if got.Output.G.M() != want.Output.G.M() {
			t.Fatalf("spanner subgraph size %d vs %d", got.Output.G.M(), want.Output.G.M())
		}
		for i := range want.Output.G.Edges {
			if got.Output.G.Edges[i] != want.Output.G.Edges[i] {
				t.Fatalf("spanner edge %d differs: %+v vs %+v", i, got.Output.G.Edges[i], want.Output.G.Edges[i])
			}
		}
		sameStats(t, got.Stats, want.Stats)
	}
	sameGraph := func(t *testing.T, got, want dist.Result[*graph.Graph]) {
		t.Helper()
		if got.Output.N != want.Output.N || got.Output.M() != want.Output.M() {
			t.Fatalf("output shape %v vs %v", got.Output, want.Output)
		}
		for i := range want.Output.Edges {
			if got.Output.Edges[i] != want.Output.Edges[i] {
				t.Fatalf("edge %d differs: %+v vs %+v", i, got.Output.Edges[i], want.Output.Edges[i])
			}
		}
		sameStats(t, got.Stats, want.Stats)
	}

	for _, gc := range graphs {
		gc := gc
		for _, seed := range seeds {
			seed := seed
			refSpanner := runSpanner(t, dist.Mem(), gc.g, 0, seed)
			refSparsify := runSparsify(t, dist.Mem(), gc.g, eps, rho, 0, seed)
			for _, p := range shardCounts {
				for _, column := range []string{"sharded", "net", "mesh"} {
					column := column
					t.Run(fmt.Sprintf("%s/seed=%d/%s/P=%d/spanner", gc.name, seed, column, p), func(t *testing.T) {
						sameSpanner(t, runColumn(t, column, gc.g, p, dist.SpannerJob(0, seed)), refSpanner)
					})
					t.Run(fmt.Sprintf("%s/seed=%d/%s/P=%d/sparsify", gc.name, seed, column, p), func(t *testing.T) {
						sameGraph(t, runColumn(t, column, gc.g, p, dist.SparsifyJob(eps, rho, sparsifyCfg(0, seed))), refSparsify)
					})
				}
			}
		}
	}
}

// matrixTimeout is the per-frame deadline of the matrix's socket runs.
const matrixTimeout = 30 * time.Second

// runColumn executes job at p shards on one column of the matrix.
func runColumn[R any](t *testing.T, column string, g *graph.Graph, p int, job dist.Job[R]) dist.Result[R] {
	t.Helper()
	if column == "net" {
		return runFleet(t, g, p, job)
	}
	spec := dist.Sharded(p)
	if column == "mesh" {
		spec = dist.Mesh(p).WithTimeout(matrixTimeout)
	}
	res, err := dist.Run(dist.NewEngine(spec, g), job)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runFleet runs job as a multi-process fleet inside the test process:
// a Net coordinator over the full graph plus p−1 Worker engines on
// goroutines, each holding only its partition view.
func runFleet[R any](t *testing.T, g *graph.Graph, p int, job dist.Job[R]) dist.Result[R] {
	t.Helper()
	errs := make(chan error, p)
	spec := dist.Net(dist.NetConfig{Listen: "127.0.0.1:0", Shards: p, Timeout: matrixTimeout,
		OnListen: func(addr string) {
			for s := 1; s < p; s++ {
				go func(s int) {
					wspec := dist.Worker(dist.WorkerConfig{Join: addr, Shard: s, Shards: p, Timeout: matrixTimeout})
					_, err := dist.Run(dist.NewPartitionEngine(wspec, graph.PartitionOf(g, s, p)), job)
					errs <- err
				}(s)
			}
		}})
	res, err := dist.Run(dist.NewEngine(spec, g), job)
	for s := 1; s < p; s++ {
		if werr := <-errs; err == nil {
			err = werr
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}
