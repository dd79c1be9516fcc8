// Distributed: run the paper's Theorem 2/Corollary 3/Theorem 5 pipeline
// on the simulated synchronous network, then again as REAL multi-process
// workers over loopback TCP sockets, and print the communication
// ledgers the theorems bound.
//
//	go run ./examples/distributed
//
// The final section re-executes this binary as worker processes (one
// per shard, each materializing only its partition of the graph),
// runs the network transport's bulk-synchronous protocol against them
// (the workers dial each other directly, a full mesh), and verifies
// that the output is edge-identical to the in-memory transport's.
// Environment knobs, used by the CI smoke job:
//
//	REPRO_DIST_N=2048      vertex count of the multi-process section
//	REPRO_DIST_SHARDS=4    process count (coordinator + workers)
//	REPRO_DIST_ONLY=1      skip the single-process sections
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"os/exec"
	"strconv"

	"repro"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Multi-process job parameters, shared by parent and re-executed
// workers; the graph is regenerated deterministically on each side so
// no file needs to travel.
const (
	mpEps   = 0.5
	mpRho   = 4.0
	mpDepth = 1
	mpSeed  = 13
)

func mpGraph(n int) *graph.Graph {
	return gen.WithRandomWeights(gen.Gnp(n, 12/float64(n), uint64(n)+1), 0.25, 4, 17)
}

// mpJob is the one job value every process of the multi-process
// section runs — the coordinator broadcasts its parameters, so the
// workers would adopt them even if they disagreed locally.
func mpJob() dist.Job[*graph.Graph] {
	cfg := core.DefaultConfig(mpSeed)
	cfg.BundleT = mpDepth
	return dist.SparsifyJob(mpEps, mpRho, cfg)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("distributed: ")
	if os.Getenv("REPRO_DIST_ROLE") == "worker" {
		workerMain()
		return
	}
	if os.Getenv("REPRO_DIST_ONLY") == "" {
		singleProcessSections()
	}
	multiProcessSection()
}

func singleProcessSections() {
	fmt.Println("distributed spanner (Theorem 2): rounds ~ log^2 n, messages ~ m log n")
	fmt.Printf("%8s %8s %8s %14s %10s %14s\n", "n", "m", "rounds", "rounds/lg^2 n", "messages", "msgs/(m lg n)")
	for _, n := range []int{128, 256, 512, 1024} {
		g := gen.Gnp(n, 16/float64(n), uint64(n))
		res, err := dist.Run(dist.NewEngine(dist.Mem(), g), dist.SpannerJob(0, 7))
		if err != nil {
			log.Fatal(err)
		}
		logn := math.Log2(float64(n))
		fmt.Printf("%8d %8d %8d %14.2f %10d %14.2f\n",
			n, g.M(), res.Stats.Rounds,
			float64(res.Stats.Rounds)/(logn*logn),
			res.Stats.Messages,
			float64(res.Stats.Messages)/(float64(g.M())*logn))
	}

	fmt.Println()
	fmt.Println("distributed sparsification (Theorem 5), rho=4, eps=0.75:")
	g := repro.Complete(256)
	h, stats := repro.DistributedSparsify(g, 0.75, 4, repro.Options{Seed: 13})
	fmt.Printf("  K_%d: m=%d -> m=%d\n", 256, g.M(), h.M())
	fmt.Printf("  ledger: %d rounds, %d messages, %d words, %d-word messages\n",
		stats.Rounds, stats.Messages, stats.Words, stats.MaxMessageWords)

	b, err := repro.Bounds(g, h, repro.Options{Seed: 17})
	if err != nil {
		fmt.Println("  bounds:", err)
	} else {
		fmt.Printf("  measured quality: %.3f*G <= H <= %.3f*G (eps=%.3f)\n", b.Lo, b.Hi, b.Epsilon())
	}

	fmt.Println()
	fmt.Println("sharded transport (Options.Transport = Sharded(P)): same decisions, wire-billed exchange")
	fmt.Printf("%4s %10s %10s %12s %12s %10s\n", "P", "m_out", "rounds", "crossMsgs", "crossWords", "crossFrac")
	for _, p := range []int{1, 2, 4} {
		hp, st := repro.DistributedSparsify(g, 0.75, 4, repro.Options{Seed: 13, Transport: repro.Sharded(p)})
		fmt.Printf("%4d %10d %10d %12d %12d %10.3f\n",
			p, hp.M(), st.Rounds, st.CrossShardMessages, st.CrossShardWords,
			float64(st.CrossShardWords)/float64(st.Words))
	}
	fmt.Println("  m_out and rounds identical at every P: the transport moves the")
	fmt.Println("  messages, the algorithm still makes the same decisions")
	fmt.Println()
}

// multiProcessSection spawns shards-1 copies of this binary as worker
// processes, runs the coordinator against them over loopback TCP, and
// verifies the output against the in-memory transport.
func multiProcessSection() {
	n := envInt("REPRO_DIST_N", 512)
	shards := envInt("REPRO_DIST_SHARDS", 4)
	g := mpGraph(n)
	fmt.Printf("network transport: coordinator + %d worker processes over loopback TCP, full mesh\n", shards-1)
	fmt.Printf("  graph: n=%d m=%d, eps=%g rho=%g depth=%d seed=%d\n", n, g.M(), mpEps, mpRho, mpDepth, mpSeed)

	// The Net spec's OnListen hook is where the worker processes are
	// spawned: the address exists, no worker has been awaited yet.
	var procs []*exec.Cmd
	spec := dist.Net(dist.NetConfig{
		Listen: "127.0.0.1:0", Shards: shards, Timeout: dist.DefaultNetTimeout,
		OnListen: func(addr string) {
			self, err := os.Executable()
			if err != nil {
				log.Fatal(err)
			}
			for s := 1; s < shards; s++ {
				cmd := exec.Command(self)
				cmd.Env = append(os.Environ(),
					"REPRO_DIST_ROLE=worker",
					"REPRO_DIST_ADDR="+addr,
					"REPRO_DIST_SHARD="+strconv.Itoa(s),
					"REPRO_DIST_SHARDS="+strconv.Itoa(shards),
					"REPRO_DIST_N="+strconv.Itoa(n),
				)
				cmd.Stderr = os.Stderr
				if err := cmd.Start(); err != nil {
					log.Fatal(err)
				}
				procs = append(procs, cmd)
			}
		},
	})
	res, err := dist.Run(dist.NewEngine(spec, g), mpJob())
	if err != nil {
		log.Fatal(err)
	}
	for i, cmd := range procs {
		if err := cmd.Wait(); err != nil {
			log.Fatalf("worker %d: %v", i+1, err)
		}
	}

	ref, err := dist.Run(dist.NewEngine(dist.Mem(), g), mpJob())
	if err != nil {
		log.Fatal(err)
	}
	if res.Output.M() != ref.Output.M() {
		log.Fatalf("OUTPUT MISMATCH: multi-process m=%d, in-memory m=%d", res.Output.M(), ref.Output.M())
	}
	for i := range ref.Output.Edges {
		if res.Output.Edges[i] != ref.Output.Edges[i] {
			log.Fatalf("OUTPUT MISMATCH at edge %d: %+v vs %+v", i, res.Output.Edges[i], ref.Output.Edges[i])
		}
	}
	if res.Stats.Rounds != ref.Stats.Rounds || res.Stats.Words != ref.Stats.Words {
		log.Fatalf("LEDGER MISMATCH: %+v vs %+v", res.Stats, ref.Stats)
	}
	fmt.Printf("  m=%d -> m=%d across %d processes\n", g.M(), res.Output.M(), shards)
	fmt.Printf("  ledger: %s\n", res.Stats)
	fmt.Printf("  wire: %d bytes on loopback, %d worker<->worker data bytes (model cross-shard: %d words)\n",
		res.WireBytes, res.DataWireBytes, res.Stats.CrossShardWords)
	fmt.Println("  VERIFIED: edge-identical to the in-memory transport, identical ledger")
}

func workerMain() {
	addr := os.Getenv("REPRO_DIST_ADDR")
	shard := envInt("REPRO_DIST_SHARD", -1)
	shards := envInt("REPRO_DIST_SHARDS", -1)
	n := envInt("REPRO_DIST_N", -1)
	if addr == "" || shard < 1 || shards < 2 || n < 1 {
		log.Fatal("worker mode needs REPRO_DIST_ADDR/SHARD/SHARDS/N")
	}
	// Regenerate the same graph deterministically and keep only this
	// shard's partition — the worker never holds the rest.
	part := graph.PartitionOf(mpGraph(n), shard, shards)
	spec := dist.Worker(dist.WorkerConfig{Join: addr, Shard: shard, Shards: shards,
		Timeout: dist.DefaultNetTimeout})
	if _, err := dist.Run(dist.NewPartitionEngine(spec, part), mpJob()); err != nil {
		log.Fatalf("worker %d: %v", shard, err)
	}
}

func envInt(key string, def int) int {
	if s := os.Getenv(key); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			log.Fatalf("%s=%q: %v", key, s, err)
		}
		return v
	}
	return def
}
