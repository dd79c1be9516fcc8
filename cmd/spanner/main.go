// Command spanner computes a Baswana–Sen log n-spanner or a t-bundle
// spanner of a weighted edge list and optionally verifies the stretch
// guarantee.
//
// Usage:
//
//	spanner -in graph.txt [-t 3] [-verify] [-seed 1] \
//	    [-transport sharded -shards P]
//
// With -shards P > 0 (or an explicit -transport spec) the plain
// spanner (t ≤ 1) runs on the distributed engine — "mem", "sharded"
// with P worker goroutines, or "mesh" with P partitions over real
// loopback TCP sockets — and the communication ledger of Theorem 2 is
// reported;
// the selected edges are identical to the shared-memory path on every
// spec for equal seeds.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/stretch"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spanner: ")
	in := flag.String("in", "", "input edge-list file (default stdin)")
	out := flag.String("out", "", "output edge-list file (default stdout)")
	t := flag.Int("t", 1, "bundle thickness (1 = plain spanner)")
	verify := flag.Bool("verify", false, "verify the stretch bound (O(n·m) Dijkstras)")
	seed := flag.Uint64("seed", 1, "random seed")
	shards := flag.Int("shards", 0, "shard count P for -transport sharded/mesh (plain spanner only; 0 = shared-memory)")
	transport := flag.String("transport", "", `distributed transport spec: "mem", "sharded", or "mesh" (default sharded when -shards > 0)`)
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}
	g, err := graphio.Read(r)
	if err != nil {
		log.Fatal(err)
	}
	var h *repro.Graph
	distributed := *shards > 0 || *transport != ""
	switch {
	case distributed && *t <= 1:
		spec, err := repro.ParseTransport(*transport, *shards)
		if err != nil {
			log.Fatal(err)
		}
		var stats repro.DistStats
		h, stats = repro.DistributedSpanner(g, repro.Options{Seed: *seed, Transport: spec})
		fmt.Fprintf(os.Stderr, "ledger: %s\n", stats)
	case distributed:
		log.Fatal("-shards/-transport support the plain spanner only (use -t 1)")
	case *t <= 1:
		h = repro.Spanner(g, repro.Options{Seed: *seed})
	default:
		h = repro.BundleSpanner(g, *t, repro.Options{Seed: *seed})
	}
	fmt.Fprintf(os.Stderr, "n=%d m=%d -> spanner edges=%d (bound st <= %g)\n",
		g.N, g.M(), h.M(), repro.StretchBound(g.N))
	if *verify && *t <= 1 {
		// Rebuild the mask against g's edge list for the checker.
		inH := make([]bool, g.M())
		type key struct {
			u, v int32
			w    float64
		}
		sel := map[key]int{}
		for _, e := range h.Edges {
			sel[key{e.U, e.V, e.W}]++
		}
		for i, e := range g.Edges {
			if sel[key{e.U, e.V, e.W}] > 0 {
				sel[key{e.U, e.V, e.W}]--
				inH[i] = true
			}
		}
		max, finite := stretch.MaxStretch(g, inH)
		if !finite {
			log.Fatal("verification failed: spanner does not connect all edge endpoints")
		}
		fmt.Fprintf(os.Stderr, "verified: max stretch %.3f <= %g\n", max, repro.StretchBound(g.N))
		_ = graph.CountTrue(inH)
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := graphio.Write(w, h); err != nil {
		log.Fatal(err)
	}
}
