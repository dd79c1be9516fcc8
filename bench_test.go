package repro

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/resistance"
	"repro/internal/solver"
	"repro/internal/spanner"
)

// ---------------------------------------------------------------------------
// Experiment benchmarks: one per entry of the experiments.Registry
// index (E1–E12). Each runs the experiment at Quick scale and reports
// wall time; `go run ./cmd/bench` prints the full tables.
// ---------------------------------------------------------------------------

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	fn := experiments.Registry[id]
	if fn == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab := fn(experiments.Quick)
		tab.Render(io.Discard)
	}
}

func BenchmarkE1BundleLeverage(b *testing.B)     { benchExperiment(b, "E1") }
func BenchmarkE2Spanner(b *testing.B)            { benchExperiment(b, "E2") }
func BenchmarkE3DistributedSpanner(b *testing.B) { benchExperiment(b, "E3") }
func BenchmarkE4ParallelSample(b *testing.B)     { benchExperiment(b, "E4") }
func BenchmarkE5ParallelSparsify(b *testing.B)   { benchExperiment(b, "E5") }
func BenchmarkE6Baselines(b *testing.B)          { benchExperiment(b, "E6") }
func BenchmarkE7SolverChain(b *testing.B)        { benchExperiment(b, "E7") }
func BenchmarkE8Scaling(b *testing.B)            { benchExperiment(b, "E8") }
func BenchmarkE9BundleAblation(b *testing.B)     { benchExperiment(b, "E9") }
func BenchmarkE10EpsDependence(b *testing.B)     { benchExperiment(b, "E10") }
func BenchmarkE11TreeBundle(b *testing.B)        { benchExperiment(b, "E11") }
func BenchmarkE12ShardedSparsify(b *testing.B)   { benchExperiment(b, "E12") }

// ---------------------------------------------------------------------------
// Micro-benchmarks of the primitives, across sizes, for profiling the
// work bounds directly (O(m log n) spanner, O(t·m·log n) bundle, ...).
// ---------------------------------------------------------------------------

func benchGraph(n int) *graph.Graph {
	return gen.Gnp(n, 24.0/float64(n), uint64(n)*7919)
}

func BenchmarkSpanner(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		g := benchGraph(n)
		adj := graph.NewAdjacency(g)
		b.Run(fmt.Sprintf("n=%d_m=%d", n, g.M()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				spanner.Compute(g, adj, nil, spanner.Options{Seed: uint64(i)})
			}
		})
	}
}

func BenchmarkBundle(b *testing.B) {
	g := benchGraph(4000)
	adj := graph.NewAdjacency(g)
	for _, t := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bundle.Compute(g, adj, nil, bundle.Options{T: t, Seed: uint64(i)})
			}
		})
	}
}

func BenchmarkParallelSample(b *testing.B) {
	for _, n := range []int{500, 1000} {
		g := gen.Gnp(n, 0.2, uint64(n))
		b.Run(fmt.Sprintf("n=%d_m=%d", n, g.M()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(uint64(i))
				core.ParallelSample(g, 0.5, cfg)
			}
		})
	}
}

func BenchmarkParallelSparsify(b *testing.B) {
	g := gen.Gnp(800, 0.25, 3)
	for _, rho := range []float64{2, 8} {
		b.Run(fmt.Sprintf("rho=%g", rho), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.ParallelSparsify(g, 0.75, rho, core.DefaultConfig(uint64(i)))
			}
		})
	}
}

func BenchmarkDistributedSpanner(b *testing.B) {
	g := benchGraph(2000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dist.Run(dist.NewEngine(dist.Mem(), g), dist.SpannerJob(0, uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistributedSpannerSharded pins the cost of the sharded
// transport against the in-memory baseline above: same graph, same
// decisions, messages billed on per-shard rows with the cross-shard
// split.
func BenchmarkDistributedSpannerSharded(b *testing.B) {
	g := benchGraph(2000)
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dist.Run(dist.NewEngine(dist.Sharded(p), g), dist.SpannerJob(0, uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistributedSparsifyOnShards covers the full distributed
// pipeline the bench CI job tracks (see .github/workflows/ci.yml): the
// sharded exchange at P=1 and P=4, and the network exchange core of
// Mesh(2). `go test -bench DistributedSparsify -cpuprofile cpu.out`
// profiles this path.
func BenchmarkDistributedSparsifyOnShards(b *testing.B) {
	g := gen.Gnp(800, 0.25, 3)
	for _, tc := range []struct {
		name string
		spec dist.TransportSpec
	}{
		{"P=1", dist.Sharded(1)},
		{"P=4", dist.Sharded(4)},
		{"Mesh(2)", dist.Mesh(2)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				job := dist.SparsifyJob(0.75, 4, core.DefaultConfig(uint64(i+1)))
				if _, err := dist.Run(dist.NewEngine(tc.spec, g), job); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineGap measures the distance between the two
// implementations of Algorithm 2 (ROADMAP.md, item 8) on perfbench's
// gnp-sparsify input and configuration: the shared-memory
// core.ParallelSparsify against the round engine on the in-memory
// transport, which return the same edges.
func BenchmarkEngineGap(b *testing.B) {
	g := gen.WithRandomWeights(gen.Gnp(4096, 100.0/4095, 41), 0.5, 1.5, 42)
	cfg := dist.SparsifyDefaults(2, 41)
	b.Run("core", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.ParallelSparsify(g, 0.5, 4, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Mem", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dist.Run(dist.NewEngine(dist.Mem(), g), dist.SparsifyJob(0.5, 4, cfg)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkEffectiveResistanceSketch(b *testing.B) {
	g := gen.Gnp(500, 0.1, 11)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		resistance.AllEdgesApprox(g, resistance.ApproxOptions{Eps: 0.3, Seed: uint64(i)})
	}
}

func BenchmarkChainBuild(b *testing.B) {
	g := gen.Grid2D(30, 30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := solver.BuildChain(g, solver.ChainOptions{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChainSolve(b *testing.B) {
	g := gen.Grid2D(30, 30)
	chain, err := solver.BuildChain(g, solver.ChainOptions{Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, g.N)
	rhs[0], rhs[g.N-1] = 1, -1
	dst := make([]float64, g.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chain.Apply(dst, rhs)
	}
}

func BenchmarkSpectralBounds(b *testing.B) {
	g := gen.Gnp(400, 0.1, 13)
	h, _, err := core.ParallelSample(g, 0.75, core.DefaultConfig(5))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Bounds(g, h, Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdjacencyBuild(b *testing.B) {
	g := benchGraph(16000)
	b.ReportAllocs()
	var sink *graph.Adjacency
	for i := 0; i < b.N; i++ {
		sink = graph.NewAdjacency(g)
	}
	_ = sink
}
