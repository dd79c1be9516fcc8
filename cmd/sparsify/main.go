// Command sparsify reads a weighted edge list, runs the paper's
// PARALLELSPARSIFY, writes the sparsifier, and reports size and
// (optionally) measured spectral quality.
//
// Usage:
//
//	sparsify -in graph.txt -out sparse.txt -eps 0.5 -rho 8 \
//	    [-measure] [-seed 1] [-transport sharded -shards P]
//
// With -in omitted the graph is read from stdin; with -out omitted the
// sparsifier is written to stdout. -transport selects the distributed
// engine's transport spec: "mem" runs the in-memory simulation,
// "sharded" partitions the rounds across -shards worker goroutines,
// and "mesh" runs the whole multi-process protocol over real loopback
// TCP sockets with -shards processes' worth of partitions, the workers
// linked directly to each other.
// The output is edge-identical to the shared-memory path on every
// spec for equal seeds, and the communication ledger is reported. For
// real multi-process workers over sockets, see cmd/distworker.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro"
	"repro/internal/graphio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sparsify: ")
	in := flag.String("in", "", "input edge-list file (default stdin)")
	out := flag.String("out", "", "output edge-list file (default stdout)")
	eps := flag.Float64("eps", 0.5, "target spectral accuracy in (0,1]")
	rho := flag.Float64("rho", 8, "edge reduction factor")
	seed := flag.Uint64("seed", 1, "random seed")
	theory := flag.Bool("theory", false, "use the paper's theoretical constants")
	measure := flag.Bool("measure", false, "measure the achieved eps (costs extra solves)")
	shards := flag.Int("shards", 0, "shard count P for -transport sharded/mesh (0 = shared-memory fast path)")
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
	if *shards > 0 || *transport != "" {
		spec, err := repro.ParseTransport(*transport, *shards)
		if err != nil {
			log.Fatal(err)
		}
		var stats repro.DistStats
		h, stats = repro.DistributedSparsify(g, *eps, *rho,
			repro.Options{Seed: *seed, Theory: *theory, Transport: spec})
		fmt.Fprintf(os.Stderr, "n=%d m=%d -> m=%d (%.1fx) on %s\n",
			g.N, g.M(), h.M(), float64(g.M())/float64(max(h.M(), 1)), spec)
		fmt.Fprintf(os.Stderr, "ledger: %s\n", stats)
	} else {
		var rep *repro.SparsifyReport
		h, rep, err = repro.Sparsify(g, *eps, *rho, repro.Options{Seed: *seed, Theory: *theory})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "n=%d m=%d -> m=%d (%.1fx) in %d rounds\n",
			g.N, rep.InputEdges, rep.OutputEdges,
			float64(rep.InputEdges)/float64(max(rep.OutputEdges, 1)), len(rep.Rounds))
	}
	if *measure {
		b, err := repro.Bounds(g, h, repro.Options{Seed: *seed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "measure: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "measured: %.4f*G <= H <= %.4f*G (eps=%.4f, target %.4f)\n",
				b.Lo, b.Hi, b.Epsilon(), *eps)
		}
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

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
