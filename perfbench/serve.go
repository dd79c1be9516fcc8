package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/stream"
)

// The serve probe: an in-process server on loopback with two
// connections, both open loops. A writer streams a fixed edge sequence
// in batches at a fixed rate; one query connection cycles sparsify,
// spanner, resistance and stat at a fixed rate, each query timed from
// its due time. Ingest holds the graph's mutex and stat waits for it,
// while the epoch queries are lock-free, so ingest that holds the lock
// longer shows in the query latencies.
//
// It runs only in a traced run, for the per-layer stream and serve
// metrics: on a 2-CPU box its end-to-end figures moved by 20-40% from
// run to run, too much for a bounded workload of its own.
const (
	serveN      = 1 << 11
	serveM      = 1 << 18 // the sequence, streamed cyclically
	serveBatch  = 4096
	serveBudget = 1 << 16
	serveBuffer = 1 << 17
	// writeRate is the writer's rate in edges per second, about half of
	// what the server ingests next to the query load on a 2-CPU x86-64
	// box.
	writeRate = 120_000
	// queryRate is the query loop's rate in queries per second, about
	// half of what one connection sustains next to the writer on the same
	// box (6/s).
	queryRate = 3.5
	// serveProbeTime is how long the probe streams and queries.
	serveProbeTime = 10 * time.Second
	// auditKept is how many served sparsifiers are replayed offline: the
	// first ones, so the replay stays short.
	auditKept = 2
)

var queryKinds = []string{"sparsify", "spanner", "resistance", "stat"}

// answer is one served sparsifier, kept for the offline audit.
type answer struct {
	info  serve.Info
	edges []graph.Edge
}

// probeServe drives the stream and serve layers for serveProbeTime and
// records their per-layer metrics. Every served sparsifier it audits
// must replay bit-identically offline.
func (b *bench) probeServe() {
	tr := b.tr
	pid, endProbe := tr.begin(0, "bench", "probe serve")
	defer endProbe()
	seed := b.seed
	if seed == 0 {
		seed = 1 // the server's own normalization, so the audit matches
	}
	gopt := serve.GraphOptions{UpdateBudget: serveBudget, BufferEdges: serveBuffer, Seed: seed}
	edges := loadEdges(serveN, serveM, int64(seed))

	_, endUp := tr.begin(pid, "serve", "listen, dial, open, warm-up ingest")
	srv, err := serve.Listen(serve.Config{Listen: "127.0.0.1:0"})
	if !b.op(err, true, "serve.Listen") {
		endUp()
		return
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	defer func() {
		srv.Shutdown(10 * time.Second)
		<-served
	}()
	const name = "bench"
	wc, err := serve.Dial(srv.Addr())
	if !b.op(err, true, "dial writer") {
		endUp()
		return
	}
	defer wc.Close()
	qc, err := serve.Dial(srv.Addr())
	if !b.op(err, true, "dial query client") {
		endUp()
		return
	}
	defer qc.Close()
	// Warm-up: one update budget, so epoch 1, which holds the spanning
	// path, is published before any query.
	_, err = wc.Open(name, serveN, gopt)
	for lo := 0; lo < serveBudget && err == nil; lo += serveBatch {
		_, err = wc.Ingest(name, edges[lo:lo+serveBatch])
	}
	endUp()
	if !b.op(err, true, "open and warm up") {
		return
	}
	epoch0, err := wc.Stat(name)
	b.op(err, true, "stat")

	var (
		wg       sync.WaitGroup
		until    = time.Now().Add(serveProbeTime)
		ingested = int64(serveBudget)
		rtt      []float64
		lat      = map[string][]float64{}
		all      []float64
		late     []float64
		kept     []answer
	)
	wg.Add(2)
	go func() { // the writer: open loop at writeRate
		defer wg.Done()
		t0 := time.Now()
		for i := 0; time.Now().Before(until); i++ {
			time.Sleep(time.Until(t0.Add(time.Duration(float64(i*serveBatch) * float64(time.Second) / writeRate))))
			lo := ingested % serveM
			_, end := tr.begin(pid, "serve", "ingest")
			t := time.Now()
			_, err := wc.Ingest(name, edges[lo:lo+serveBatch])
			rtt = append(rtt, ms(time.Since(t)))
			end()
			if !b.op(err, true, "ingest") {
				return
			}
			ingested += serveBatch
		}
	}()
	go func() { // the query connection: open loop at queryRate
		defer wg.Done()
		rng := rand.New(rand.NewSource(int64(seed)))
		t0 := time.Now()
		for i := 0; ; i++ {
			due := t0.Add(time.Duration(float64(i) * float64(time.Second) / queryRate))
			if !due.Before(until) || !time.Now().Before(until) {
				return // a backlog left at the end is not sent
			}
			time.Sleep(time.Until(due))
			late = append(late, ms(time.Since(due)))
			kind := queryKinds[i%len(queryKinds)]
			_, end := tr.begin(pid, "serve", kind)
			var err error
			switch kind {
			case "sparsify":
				var info serve.Info
				var h *graph.Graph
				info, h, err = qc.Sparsify(name, sparsifyEps, sparsifyRho)
				if err == nil && len(kept) < auditKept {
					kept = append(kept, answer{info, h.Edges})
				}
			case "spanner":
				_, _, err = qc.Spanner(name, 2)
			case "resistance":
				u := int32(rng.Intn(serveN))
				v := (u + 1 + int32(rng.Intn(serveN-1))) % serveN
				_, _, err = qc.Resistance(name, u, v)
			case "stat":
				_, err = qc.Stat(name)
			}
			end()
			d := ms(time.Since(due))
			lat[kind] = append(lat[kind], d)
			all = append(all, d)
			b.op(err, true, kind+" query")
		}
	}()
	wg.Wait()

	_, end := tr.begin(pid, "serve", "flush")
	start := time.Now()
	info, err := wc.Flush(name)
	b.vals["serve.flush_ms"] = ms(time.Since(start))
	end()
	b.op(err, true, "flush")

	// The server's ingest rate while busy: 4096 edges over the mean batch
	// round trip, the rate a writer sending back to back would see.
	if len(rtt) > 0 {
		b.vals["serve.ingest_eps"] = 1e3 * serveBatch / mean(rtt)
	}
	b.vals["serve.epochs"] = float64(info.Epoch - epoch0.Epoch)
	b.vals["serve.ingest_rtt_p50_ms"] = quantile(rtt, 0.5)
	b.vals["serve.ingest_rtt_p90_ms"] = quantile(rtt, 0.9)
	b.vals["serve.gen_late_ms"] = quantile(late, 0.9)
	b.vals["serve.query_p50_ms"] = quantile(all, 0.5)
	b.vals["serve.query_p90_ms"] = quantile(all, 0.9)
	for k, xs := range lat {
		b.vals["serve."+k+"_p50_ms"] = quantile(xs, 0.5)
		b.vals["serve."+k+"_p90_ms"] = quantile(xs, 0.9)
	}
	if computeMS := b.audit(pid, edges, seed, kept); len(computeMS) > 0 {
		b.vals["serve.sparsify_compute_ms"] = computeMS[len(computeMS)-1]
		b.vals["serve.sparsify_overhead_ms"] = b.vals["serve.sparsify_p50_ms"] - computeMS[len(computeMS)-1]
	}
	b.note("serve probe: n=%d batch=%d budget=%d buffer=%d write_rate=%d/s query_rate=%g/s: %d queries, %d edges ingested",
		serveN, serveBatch, serveBudget, serveBuffer, writeRate, queryRate, len(all), ingested-serveBudget)
	b.probeStream(pid, edges, seed)
}

// audit replays each kept answer's epoch offline, as the service's
// determinism contract promises: stream the prefix the epoch names,
// snapshot, and resparsify under serve.QuerySeed. The served sparsifier
// must match edge for edge. kept must be in prefix order. It returns
// the offline sparsify times in ms.
func (b *bench) audit(parent int, edges []graph.Edge, seed uint64, kept []answer) []float64 {
	pid, end := b.tr.begin(parent, "bench", "audit")
	defer end()
	replay := stream.New(serveN, stream.Options{BufferEdges: serveBuffer, Seed: seed})
	var (
		replayed int64
		times    []float64
	)
	for _, a := range kept {
		what := fmt.Sprintf("epoch %d (prefix %d) replays bit-identically", a.info.Epoch, a.info.Prefix)
		_, endIngest := b.tr.begin(pid, "stream", "replay ingest")
		var err error
		for ; replayed < a.info.Prefix && err == nil; replayed++ {
			err = replay.Ingest(edges[replayed%serveM])
		}
		endIngest()
		if !b.op(err, true, what) {
			return times
		}
		_, endSnap := b.tr.begin(pid, "stream", "stream.Snapshot")
		sum, _, err := replay.Snapshot()
		endSnap()
		if !b.op(err, true, what) {
			return times
		}
		var out *graph.Graph
		c := b.timeOp(b.tr, pid, "core", "core.ParallelSparsify (offline)", func() {
			out, _, err = core.ParallelSparsify(sum, sparsifyEps, sparsifyRho, core.DefaultConfig(serve.QuerySeed(seed, a.info.Epoch)))
		})
		times = append(times, c.ms)
		b.note("audit: epoch %d prefix %d: summary %d edges, served sparsifier %d edges",
			a.info.Epoch, a.info.Prefix, len(sum.Edges), len(a.edges))
		if !b.op(err, err == nil && sameEdges(out.Edges, a.edges), what) {
			b.vals["serve.bitid_failures"]++
		}
	}
	return times
}

// probeStream runs the stream layer alone: stream.New plus Ingest over
// one pass of the sequence, then a Snapshot, with no server.
func (b *bench) probeStream(parent int, edges []graph.Edge, seed uint64) {
	pid, end := b.tr.begin(parent, "bench", "probe stream")
	defer end()
	str := stream.New(serveN, stream.Options{BufferEdges: serveBuffer, Seed: seed})
	_, endIngest := b.tr.begin(pid, "stream", "stream.Ingest")
	start := time.Now()
	var err error
	for i := 0; i < len(edges) && err == nil; i++ {
		err = str.Ingest(edges[i])
	}
	b.vals["stream.ingest_eps"] = float64(len(edges)) / time.Since(start).Seconds()
	endIngest()
	_, endSnap := b.tr.begin(pid, "stream", "stream.Snapshot")
	start = time.Now()
	sum, reduces, serr := str.Snapshot()
	b.vals["stream.snapshot_ms"] = ms(time.Since(start))
	endSnap()
	if err == nil {
		err = serr
	}
	if b.op(err, true, "standalone stream") {
		b.vals["stream.reduces"] = float64(reduces)
		b.vals["stream.summary_edges"] = float64(len(sum.Edges))
	}
}

// loadEdges returns the ingest sequence: a spanning path, so every
// epoch after the first is connected, then random weighted pairs.
func loadEdges(n, m int, seed int64) []graph.Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, m)
	for v := 1; v < n && len(edges) < m; v++ {
		edges = append(edges, graph.Edge{U: int32(v - 1), V: int32(v), W: 1})
	}
	for len(edges) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, graph.Edge{U: int32(u), V: int32(v), W: 0.5 + rng.Float64()})
		}
	}
	return edges
}
