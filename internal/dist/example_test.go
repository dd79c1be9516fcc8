package dist_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
)

// Run the sparsifier job on the default in-memory spec: one process,
// the whole graph, every round billed to the ledger.
func ExampleRun() {
	g := gen.Complete(64)
	res, err := dist.Run(dist.NewEngine(dist.Mem(), g), dist.SparsifyJob(0.75, 4, core.DefaultConfig(7)))
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	fmt.Printf("m %d -> %d on %d shard(s)\n", g.M(), res.Output.M(), res.Stats.Shards)
	// Output:
	// m 2016 -> 1346 on 1 shard(s)
}

// The same entry point runs the spanner job; swapping the spec for
// Sharded(4) partitions the rounds across four worker goroutines
// without changing a single decision.
func ExampleRun_spanner() {
	g := gen.Complete(64)
	res, err := dist.Run(dist.NewEngine(dist.Sharded(4), g), dist.SpannerJob(0, 7))
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	fmt.Printf("k=%d spanner edges=%d cross-shard traffic=%v\n",
		res.Output.K, res.Output.G.M(), res.Stats.CrossShardWords > 0)
	// Output:
	// k=6 spanner edges=442 cross-shard traffic=true
}

// Mesh(p) runs the whole multi-process protocol over loopback TCP —
// partition loading, binary frames over real sockets, direct
// worker↔worker links, the round barrier, the result gather —
// inside one process, and the output is bit-identical to the in-memory
// spec's.
func ExampleRun_loopback() {
	g := gen.Complete(64)
	job := dist.SparsifyJob(0.75, 4, core.DefaultConfig(7))
	mem, err := dist.Run(dist.NewEngine(dist.Mem(), g), job)
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	net, err := dist.Run(dist.NewEngine(dist.Mesh(3), g), job)
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	fmt.Printf("m=%d identical=%v bytes on the wire=%v\n",
		net.Output.M(), net.Output.M() == mem.Output.M(), net.WireBytes > 0)
	// Output:
	// m=1346 identical=true bytes on the wire=true
}
