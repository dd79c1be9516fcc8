package dist_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
)

const netTestTimeout = 30 * time.Second

// The net transport's output-equivalence pins (edge-identical results
// and identical ledgers vs the in-memory run, for both jobs) live in
// the cross-transport matrix of equivalence_test.go. This file keeps
// the protocol-specific checks.

// TestNetTransportHonestyCounters: the wire and Stats counters that
// only the network path reports are sane on a multi-worker run — real
// bytes hit the sockets, the CrossShard split is populated, and
// Stats.Shards records the partition.
func TestNetTransportHonestyCounters(t *testing.T) {
	g := gen.Gnp(300, 0.15, 7)
	const p = 5 // a coordinator plus 4 workers
	res := runSparsify(t, dist.Mesh(p).WithTimeout(netTestTimeout), g, 0.75, 4, 0, 11)
	if res.Stats.Shards != p {
		t.Fatalf("Stats.Shards=%d, want %d", res.Stats.Shards, p)
	}
	if res.Stats.CrossShardMessages == 0 {
		t.Fatal("no cross-shard traffic on a connected graph")
	}
	if res.WireBytes == 0 {
		t.Fatal("no bytes on the wire")
	}
	if res.PeakViewWords <= 0 {
		t.Fatal("no per-worker peak footprint gathered")
	}
}

// TestNetMatchesSharded: for equal (graph, seed, P) the network path's
// CrossShard split equals the sharded transport's — the wire bill is a
// property of the partition, not of the medium.
func TestNetMatchesSharded(t *testing.T) {
	g := gen.Gnp(350, 0.08, 13)
	for _, p := range []int{2, 4} {
		sh := runSparsify(t, dist.Sharded(p), g, 0.75, 4, 0, 5).Stats
		nt := runSparsify(t, dist.Mesh(p).WithTimeout(netTestTimeout), g, 0.75, 4, 0, 5).Stats
		if nt.CrossShardMessages != sh.CrossShardMessages || nt.CrossShardWords != sh.CrossShardWords {
			t.Fatalf("P=%d: cross-shard split diverges: net %+v vs sharded %+v", p, nt, sh)
		}
	}
}

// TestNetWorkerSpecMatchesCoordinator drives the real multi-process
// specs directly — one Net engine plus P−1 Worker engines, each on its
// own TCP connection — and checks the round barrier's tally exchange:
// every worker's ledger is identical to the coordinator's, a worker's Output
// is the zero value, and the coordinator's assembled output matches
// the in-memory reference.
func TestNetWorkerSpecMatchesCoordinator(t *testing.T) {
	g := gen.Gnp(200, 0.1, 3)
	const p = 3
	ref := runSparsify(t, dist.Mem(), g, 0.75, 4, 0, 21)
	addrCh := make(chan string, 1)
	type workerOut struct {
		res dist.Result[*graph.Graph]
		err error
	}
	outCh := make(chan workerOut, p-1)
	coordSpec := dist.Net(dist.NetConfig{
		Listen: "127.0.0.1:0", Shards: p, Timeout: netTestTimeout,
		OnListen: func(addr string) { addrCh <- addr },
	})
	go func() {
		addr := <-addrCh
		for s := 1; s < p; s++ {
			go func(s int) {
				spec := dist.Worker(dist.WorkerConfig{Join: addr, Shard: s, Shards: p, Timeout: netTestTimeout})
				res, err := dist.Run(dist.NewEngine(spec, g), dist.SparsifyJob(0.75, 4, sparsifyCfg(0, 21)))
				outCh <- workerOut{res, err}
			}(s)
		}
	}()
	res, err := dist.Run(dist.NewEngine(coordSpec, g), dist.SparsifyJob(0.75, 4, sparsifyCfg(0, 21)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p-1; i++ {
		select {
		case wo := <-outCh:
			if wo.err != nil {
				t.Fatal(wo.err)
			}
			if wo.res.Output != nil {
				t.Fatal("worker received an assembled output; assembly is the coordinator's")
			}
			st := wo.res.Stats
			if st.Rounds != res.Stats.Rounds || st.Messages != res.Stats.Messages ||
				st.Words != res.Stats.Words || st.CrossShardWords != res.Stats.CrossShardWords {
				t.Fatalf("worker ledger diverges from coordinator: %+v vs %+v", st, res.Stats)
			}
			if wo.res.PeakViewWords <= 0 || wo.res.WireBytes <= 0 {
				t.Fatalf("worker honesty counters empty: %+v", wo.res)
			}
		case <-time.After(netTestTimeout):
			t.Fatal("worker did not finish")
		}
	}
	if res.Output.M() != ref.Output.M() {
		t.Fatalf("m=%d vs in-memory %d", res.Output.M(), ref.Output.M())
	}
	for i := range ref.Output.Edges {
		if res.Output.Edges[i] != ref.Output.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

// TestWorkerJobMismatch: a worker started for a different job than the
// coordinator broadcasts must fail with a clear error naming both jobs
// — the registry cross-check that keeps mixed fleets from silently
// diverging.
func TestWorkerJobMismatch(t *testing.T) {
	g := gen.Gnp(60, 0.2, 5)
	const p = 2
	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	coordSpec := dist.Net(dist.NetConfig{
		Listen: "127.0.0.1:0", Shards: p, Timeout: netTestTimeout,
		OnListen: func(addr string) { addrCh <- addr },
	})
	go func() {
		addr := <-addrCh
		spec := dist.Worker(dist.WorkerConfig{Join: addr, Shard: 1, Shards: p, Timeout: netTestTimeout})
		_, err := dist.Run(dist.NewEngine(spec, g), dist.SpannerJob(0, 21))
		errCh <- err
	}()
	// The coordinator runs sparsify; the worker expects the spanner. The
	// worker must reject the job header; the coordinator then fails on
	// the dead connection.
	_, coordErr := dist.Run(dist.NewEngine(coordSpec, g), dist.SparsifyJob(0.75, 4, sparsifyCfg(0, 21)))
	workerErr := <-errCh
	if workerErr == nil {
		t.Fatal("worker accepted a job it was not started for")
	}
	if !strings.Contains(workerErr.Error(), "sparsify") || !strings.Contains(workerErr.Error(), "spanner") {
		t.Fatalf("mismatch error does not name both jobs: %v", workerErr)
	}
	if coordErr == nil {
		t.Fatal("coordinator finished against a worker that aborted")
	}
}

// TestEngineSpecValidation: engines reject inputs that disagree with
// their spec with errors, never panics — a partition loaded for the
// wrong shard count, a shard id out of range, an empty job.
func TestEngineSpecValidation(t *testing.T) {
	g := gen.Gnp(40, 0.2, 5)
	part := graph.PartitionOf(g, 1, 4)
	spec := dist.Worker(dist.WorkerConfig{Join: "127.0.0.1:1", Shard: 2, Shards: 4, Timeout: time.Second})
	if _, err := dist.Run(dist.NewPartitionEngine(spec, part), dist.SpannerJob(0, 1)); err == nil {
		t.Fatal("accepted a partition for the wrong shard")
	}
	badShards := dist.Worker(dist.WorkerConfig{Join: "127.0.0.1:1", Shard: 1, Shards: 3, Timeout: time.Second})
	if _, err := dist.Run(dist.NewPartitionEngine(badShards, part), dist.SpannerJob(0, 1)); err == nil {
		t.Fatal("accepted a partition split for a different shard count")
	}
	if _, err := dist.Run(dist.NewEngine(dist.Net(dist.NetConfig{Listen: "127.0.0.1:0", Shards: 100, Timeout: time.Second}), g), dist.SpannerJob(0, 1)); err == nil {
		t.Fatal("accepted more shards than vertices")
	}
	if _, err := dist.Run(dist.NewEngine(dist.Mem(), g), dist.Job[*graph.Graph]{}); err == nil {
		t.Fatal("accepted an empty job")
	}
}

// TestPartitionSparsifySingleShard: the partition path on a 1-shard
// Mesh run (no sockets at all) matches the in-memory run — the
// partition view itself is output-neutral.
func TestPartitionSparsifySingleShard(t *testing.T) {
	g := gen.Gnp(150, 0.12, 17)
	ref := runSparsify(t, dist.Mem(), g, 0.75, 4, 0, 3)
	res := runSparsify(t, dist.Mesh(1).WithTimeout(netTestTimeout), g, 0.75, 4, 0, 3)
	if res.Output.M() != ref.Output.M() {
		t.Fatalf("m=%d vs %d", res.Output.M(), ref.Output.M())
	}
	for i := range ref.Output.Edges {
		if res.Output.Edges[i] != ref.Output.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}
