// Package dist simulates the paper's synchronous distributed model and
// implements its two distributed results — the Baswana–Sen spanner
// (Theorem 2 / Corollary 3) and spectral sparsification (Algorithm 2 /
// Theorem 5) — behind one Engine/Job/TransportSpec surface that makes
// the paper's central promise an API shape: ONE algorithm value runs
// unchanged on every execution substrate.
//
// # The two axes
//
// A Job is an algorithm as a value: a registry name, a wire schema for
// its parameters, the per-round body executed over each process's
// partition view, and the reducer that assembles the shards' partial
// results. Two jobs are built in, one public entry point per
// algorithm:
//
//   - SpannerJob(k, seed) — the randomized Baswana–Sen (2k−1)-spanner
//     [Baswana & Sen 2007] expressed as synchronous message-passing
//     rounds: cluster centers sample themselves, broadcast the outcome
//     down their cluster trees (radius grows by one per iteration,
//     hence O(log² n) rounds total), neighbors exchange cluster ids,
//     and every vertex decides locally from what it heard — never by
//     peeking at remote state. Messages carry O(1) words of O(log n)
//     bits each.
//
//   - SparsifyJob(eps, rho, cfg) — ⌈log₂ρ⌉ iterations of the Algorithm
//     1 sampling round, each composing t Baswana–Sen layers into a
//     t-bundle (Definition 1) and keeping every off-bundle edge with
//     probability 1/4 at weight 4w. The returned Stats ledger is the
//     total communication bill Theorem 5 bounds.
//
// A TransportSpec is a value describing how the job's rounds execute:
// Mem() (single-process, the default), Sharded(p) (p worker
// goroutines), Mesh(p) (an in-process Net + Worker fleet: a
// coordinator and p−1 worker goroutines over real loopback TCP
// sockets), and the real multi-process pair
// Net(NetConfig)/Worker(WorkerConfig). Specs carry no connections;
// Run materializes, drives, and tears down the transport they
// describe.
//
// Engine binds a spec to an input — NewEngine for a full graph,
// NewPartitionEngine for one shard loaded from a partition file
// (graphio.ReadPartition) — and Run(engine, job) composes the two axes
// and returns a typed Result: the job's assembled Output plus the
// run-wide honesty counters (Stats, PeakViewWords, WireBytes).
//
// In-process:
//
//	g := gen.Gnp(1000, 0.02, 7)
//	res, err := dist.Run(dist.NewEngine(dist.Sharded(4), g),
//	    dist.SparsifyJob(0.75, 4, core.DefaultConfig(7)))
//	// res.Output is the sparsifier, res.Stats the Theorem 5 ledger.
//
// Mesh — the full multi-process protocol (partition views, binary
// frames on real sockets, direct worker↔worker links, the round
// barrier, the result gather) inside one process:
//
//	res, err := dist.Run(dist.NewEngine(dist.Mesh(4), g),
//	    dist.SpannerJob(0, 7))
//	// res.Output.G is the spanner; res.WireBytes the socket traffic.
//
// Real multi-process — one coordinator process and P−1 workers, each
// holding only its shard (see cmd/distworker for the CLI form):
//
//	// coordinator process (shard 0):
//	spec := dist.Net(dist.NetConfig{Listen: ":9000", Shards: 4,
//	    OnListen: func(addr string) { /* publish addr */ }})
//	res, err := dist.Run(dist.NewPartitionEngine(spec, part0), job)
//
//	// each worker process s in 1..3:
//	wspec := dist.Worker(dist.WorkerConfig{Join: addr, Shard: s, Shards: 4})
//	_, err := dist.Run(dist.NewPartitionEngine(wspec, partS), job)
//
// The coordinator broadcasts the job's name and parameter block (the
// wire schema pinned by TestJobWireSchemas), so workers adopt — and
// cross-check — the exact same run; a worker started for a different
// job, build, or graph fails loudly before any round executes.
//
// # Equivalence
//
// The decision logic mirrors the shared-memory implementation in
// internal/spanner and internal/core exactly (same split-stream seeds,
// same tie-breaking), so for equal seeds the distributed outputs are
// bit-identical to spanner.Compute and core.ParallelSparsify — and
// identical across every TransportSpec at any shard count and any
// GOMAXPROCS, with an identical Stats ledger (Rounds, Messages, Words,
// per-phase rows). Only the honesty counters of distribution vary: the
// CrossShard split, WireBytes, and PeakViewWords. The cross-transport
// matrix in equivalence_test.go pins all of it through the single
// Run entry point.
//
// # Under the hood
//
// The round engine (rounds.go) runs the synchronous schedule — compute
// phase → EndRound barrier → next round — and keeps the ledger; the
// Transport interface (transport.go) bills every message and moves
// only what another process reads, with all three implementations
// sharing the exchange core (exchange.go): one tally row per worker,
// written by that worker alone, and the post board. Each message is
// billed once, when it is sent, on the sending worker's row, as
// cross-shard traffic where its sender and recipient have different
// owners; the barrier sums the row tallies. What makes one algorithm
// run everywhere is who sends what: payloads that are pure functions
// of the seed (MsgSampled, MsgKeep) are sent by the recipient's owner,
// which re-derives them, so they never travel; decision notices
// (MsgAdd, MsgDrop) are applied by their sender first and sent from
// one goroutine, and only those over an edge whose other end another
// process owns cross the wire, into that process's mailbox, which
// folds them back after the barrier. In one process nothing is staged,
// drained or delivered.
//
// The spanner's neighbour exchanges, where a vertex sends one word to
// every live neighbour, are posts: the vertex posts the word
// once (roundEngine.Post), it is stored on the transport's O(n) post
// board and billed on the poster's row once per live edge of its row
// in the round's view, so the ledger is the per-edge one, and after
// the barrier each recipient walks its own live slots and reads the
// neighbour's post off the board (Heard). The bill is read from
// counts: the board counts every vertex's live and cross-shard slots
// once when the spanner sets its view (roundEngine.PostView), and each
// edge the spanner kills goes through roundEngine.Drop, the only
// writer of the dead mask from then on, which takes it off both
// endpoints' counts. The network transport carries a post across a
// link once, as one record per (poster, destination shard holding one
// of its live edges) counting those edges, which the receiver checks
// against its own view's count.
//
// # Topology: one full-mesh data plane
//
// On the network path (net.go, wire.go, mesh.go) each shard is an OS
// process, and what it stages for another shard — notices over
// boundary edges and post records — becomes batched fixed-size binary
// frames flushed over TCP at every barrier. Shard 0 is the coordinator: every
// worker joins it over a hub connection that carries the join
// handshake, the coordinator's batches, collectives, blobs, and the
// recovery protocol. The other round data travels on a full mesh: each
// worker binds a peer listener, announces it during the join
// handshake, and the coordinator broadcasts the address book in every
// attempt after the job header and checkpoint; lower shard dials,
// higher shard accepts, so bring-up is acyclic and cannot deadlock.
// Every worker↔worker batch crosses the wire exactly once
// (Result.DataWireBytes counts them) — each message billed once per
// link, the direct-neighbour model the paper's distributed bounds
// assume. At P ≤ 2 no worker has a direct peer: the hub is the only
// link (without failover there is no peer listener and no book
// either).
//
// The trade-off is connectivity: every worker needs a peer listener
// the other workers can reach (WorkerConfig.PeerListen, distworker
// -peer-listen, on a routable host for multi-machine runs), and a
// fleet of P processes holds P(P−1)/2 connections — one per process
// pair: (P−1)(P−2)/2 worker links plus P−1 hub connections. That is
// cheap at the fleet sizes this package runs. A fleet that can expose
// only one port per machine, or only the coordinator's, would need a
// relayed plane; that would be a new spec, not a mode of this one.
// The coordinator-relayed star that used to be the default wrote every
// worker↔worker batch twice and lost on every measured number, so
// wire version 5 retired it.
//
// Every shard runs the same barrier, over every link alike: it sends
// each other shard the batch staged for it, its own local tally (its
// row's), and a stream check, then reads the same from each,
// parses each verified batch into its mailboxes and post board (an
// envelope the sender could not have staged, or a post whose count is
// not the poster's live edges into this shard, is a *NetError), and
// returns the sum of the P local tallies — so the ledger is identical
// on every process without a second hop through the coordinator.
// Loop-control values a single process reads off shared memory travel
// as small unbilled collectives (AllMaxInt32/AllOrWord/AllGatherInt32s)
// on the hub.
//
// # Wire batching and buffer reuse
//
// The wire layer is built for raw speed without touching the format.
// writeFrame does not write: it appends the frame's header (from a
// chunked arena whose slices stay stable under growth) and payload to
// the connection's pending net.Buffers, computing CRC-32C and
// WireBytes at append time so accounting is byte-identical to the
// per-frame protocol. flush hands the whole batch to the kernel as one
// vectored write — a round barrier costs one syscall per peer instead
// of one per frame.
//
// On every link the per-peer round batches are double-buffered:
// flushAsync hands the sealed batch to the connection's writer
// goroutine and returns immediately, so round r's bytes are on the
// wire while round r+1 computes, and pooled payload buffers are
// reclaimed only after the write completes (mesh.go). The protocol
// invariant this preserves is strict write-then-read alternation PER
// PEER — a process never reads from a peer before everything it owes
// that peer is queued in order on that peer's connection; whether the
// bytes leave synchronously (collectives) or on the writer goroutine
// (round batches) cannot deadlock the barrier, because each side's
// reads are against traffic the other side has already queued, and
// the writers drain while both sides read (batch_test.go runs a
// barrier whose batches overflow the socket buffers in both directions
// of every link). A synchronous flush on a connection first drains its
// writer, so per-connection byte order is exactly the per-frame
// protocol's. Heartbeats bypass the batch and may hit the wire ahead
// of pending frames, which is safe because readFrame consumes them
// transparently at any stream position (batch_test.go pins
// byte-identity for both flush paths and chunked reassembly, and the
// WireBytes goldens in wirebytes_golden_test.go pin the totals across
// the batching change).
//
// Payload buffers cycle through a per-transport size-classed freelist
// (getBuf/putBuf): reads draw from it, encoded batches return to it
// at the flush that writes them, and blob payloads — which
// escape to the application — are never pooled. Above the wire, the
// round engine keeps scratch freelists for the spanner's per-layer
// mask and label arrays (rounds.go), and the coordinator's pairwise
// gather merge runs its per-level zips in parallel goroutines once the
// lists are large enough. The allocation budget in memory_test.go pins
// the pooling at the allocator; E15 gates the wall-clock at ≥10^7
// edges.
//
// # Failure model and recovery
//
// Liveness is heartbeat-based: each connection direction carries a
// heartbeat every timeout/4 while the peer computes, so a slow round
// never trips the per-frame deadline while a dead peer is detected
// within one timeout (a killed process immediately, via EOF). Data
// frames feed a running CRC-32C per direction, cross-checked at every
// round barrier before any payload is decoded, and every collective
// frame carries a per-attempt sequence number validated on both sides
// — corrupted or desynchronized traffic is rejected, never
// interpreted.
//
// Worker death is recovered by deterministic replay. Every round is a
// pure function of (seed, partition, round number), so the coordinator
// checkpoints only the small gathered inter-epoch state — the sorted
// in-bundle edge-id list per sampling epoch plus a ledger snapshot,
// O(bundle) words, never Θ(m) (checkpoint.go). When a worker fails and
// NetConfig.Respawn is set, the coordinator rolls the survivors back
// (rollback frames, acked), respawns the dead shard from its partition
// file, re-broadcasts the checkpoint, and every process re-runs the
// attempt: the replay fast-forwards through the checkpointed epochs
// without a single network round and resumes live execution
// bit-identically — kill -9 a worker mid-run and the final output and
// ledger equal the failure-free run's (the recovery suite and
// cmd/distworker's kill-recover tests pin this). Recovery survives
// the mesh topology: a dead worker takes its direct
// links down with it, survivors report the dead peer on their hubs
// (frameFault — the coordinator only probes the connection it is
// currently reading, so without the report a death whose hub frames
// all arrived would deadlock the fleet; see meshFail) and park for the
// hub's rollback frame, the rollback ack tears every link down, the
// respawned shard announces a fresh peer listener as it rejoins, and
// the next attempt rebuilds the mesh from the re-broadcast address
// book.
//
// Coordinator death is survivable too when failover is armed
// (NetConfig.Failover + WorkerConfig.Failover on every process, see
// failover.go). A worker's peer listener doubles as its standby hub:
// with failover armed every worker binds it and announces it at the
// join handshake even at P = 2, and the coordinator broadcasts the
// peer address book right after the job header and checkpoint of
// every attempt, so a worker that holds the book also holds the same
// raw job-header bytes and the same checkpoint as every other worker.
// When a worker loses its hub connection, the election is a pure
// function of that shared book — the lowest-numbered shard with a peer
// address wins, no votes, no split brain — and the winner adopts
// shard 0: its peer listener becomes the hub, it re-broadcasts the
// stashed header VERBATIM plus the checkpoint, asks the host to
// respawn its vacated shard (WorkerConfig.Respawn), and runs the
// normal recovery loop while the other survivors rejoin at the book
// address. Replay is deterministic, so kill -9 the COORDINATOR mid-run
// and the output and ledger still equal the failure-free run's
// (failover_test.go and cmd/distworker's coordinator-kill drills).
//
// The same broadcast checkpoint powers elastic resize between runs: a
// checkpoint blob delivered to NetConfig.OnCheckpoint can seed
// NetConfig.Resume on a NEW fleet with a different shard count, and
// the resumed run fast-forwards the checkpointed epochs and finishes
// with output bit-identical to the original (the Stats ledger's
// CrossShard split legitimately reflects the partition actually run).
//
// Protocol violations and checksum mismatches remain fatal — electing
// or replaying past a logic bug would only reproduce it.
//
// Per-worker memory is O(n + m_incident) words on a partition run —
// enforced, not aspirational. A partition view (view.go) stores edges,
// masks, and per-round scratch densely over local ids [0, m_incident)
// with only a sorted global-id map (and its bucket directory, at most
// one word per incident edge) at the wire boundary, and even the
// end-of-round renumbering gathers only the O(bundle-size) sorted list
// of in-bundle edge ids. The memory regression suite (memory_test.go)
// pins the bound statically, dynamically (Result.PeakViewWords of real
// Mesh runs), and at the allocator; E13 reports it per worker.
package dist
