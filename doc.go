// Package repro is a from-scratch Go reproduction of
//
//	Ioannis Koutis, "Simple Parallel and Distributed Algorithms for
//	Spectral Graph Sparsification", SPAA 2014 (arXiv:1402.3851).
//
// The package exposes the paper's sparsification pipeline — iterated
// weighted-spanner bundles plus uniform sampling — together with every
// substrate it stands on: Baswana–Sen spanners (shared-memory parallel
// and simulated synchronous distributed), effective resistances, a
// spectral approximation verifier, baseline sparsifiers, and a
// Peng–Spielman style chain solver for SDD/Laplacian linear systems.
//
// Quick start:
//
//	g := repro.Gnp(500, 0.5, 1)                   // a dense random graph
//	h, report, err := repro.Sparsify(g, 0.75, 4, repro.Options{Seed: 7})
//	// h ≈ g spectrally with roughly half the edges kept; report has
//	// the per-round bundle/sample statistics.
//	b, err := repro.Bounds(g, h, repro.Options{}) // measure (1±ε)
//
// The paper's distributed results live in internal/dist and surface
// here as DistributedSparsify: Algorithm 2 / Theorem 5 executed on a
// simulated CONGEST-style synchronous network (per-vertex mailboxes,
// Baswana–Sen clustering as rounds), returning a DistStats
// communication ledger — rounds, messages, words, per-phase — that the
// tests pin against the O(log² n)-round, near-linear-communication
// bounds of Theorems 2 and 5.
//
// # Engine, jobs, and transport specs
//
// The distributed subsystem is organized around two orthogonal value
// types: a Job (the algorithm — internal/dist's SpannerJob and
// SparsifyJob are the built-ins) and a TransportSpec (how its rounds
// execute). Options.Transport selects the spec for the entry points
// here: Mem() is the single-process in-memory simulation and the
// default, Sharded(p) partitions the rounds across p worker goroutines
// exchanging cross-shard messages through per-shard-pair buffers at
// each round barrier, and Mesh(p) runs the whole multi-process
// protocol — partition views, batched binary frames on real loopback
// TCP sockets, a per-round tally handshake that keeps the ledger
// identical on every process — inside one process. Real multi-process
// deployments use dist.Run directly with the Net/Worker specs; see
// cmd/distworker for the CLI (coordinator + worker modes, -job
// resolved against the dist job registry) and examples/distributed for
// a verified run with real OS processes. The network transport has one
// data plane, a full mesh: the coordinator carries control traffic and
// its own batches, while the workers send each other their round
// batches directly, so every message crosses the wire once. The price
// is connectivity — every worker needs a peer listener the others can
// reach (-peer-listen on multi-machine runs), and a fleet of P
// processes holds P(P−1)/2 connections, one per process pair; a
// firewalled fleet that can
// expose a single port would need a relayed plane, which would be a
// future spec rather than a mode of this one. A multi-process worker is
// memory-honest: its partition view (graphio.ReadPartition) stores
// edges, masks, and scratch densely over local ids with only a sorted
// global-id map at the wire boundary, so each process allocates
// O((n + m)/P + boundary) words — enforced by a memory regression
// suite, never the global edge count. The output is edge-identical on
// every spec for equal seeds — the medium changes how messages travel,
// never what is decided — and the ledger additionally reports
// DistStats.CrossShardMessages/CrossShardWords, the traffic a real
// multi-machine partition puts on the wire. Multi-process runs are
// fault-tolerant end to end: worker death is recovered by checkpointed
// deterministic replay, coordinator death by shard-0 failover when
// NetConfig.Failover is armed (a surviving shard adopts its
// pre-announced peer listener as the hub and re-broadcasts the last
// checkpoint), and a checkpoint blob can resume a run on a fleet of a
// different size (NetConfig.Resume) — in every case with output
// bit-identical to a failure-free run. See internal/dist for the
// Engine/Job/TransportSpec contract and experiments E12/E13 (`go run
// ./cmd/bench -run E12,E13`) for the scaling, transport-comparison,
// and per-worker-footprint sweeps.
//
// # Sparsifier as a service
//
// internal/serve turns the streaming sparsifier into a long-lived
// server for dynamic graphs, surfaced here as ListenSparsifier /
// DialSparsifier and as the cmd/sparsifyd daemon. Graphs are mutable
// named resources: clients stream edge batches into the next epoch
// while every query — sparsify, spanner, resistance, solve — answers
// from the current immutable epoch snapshot, so readers never block on
// ingest. Each published epoch names the exact edge prefix it covers,
// and the served answer is a pure function of that prefix, the graph's
// seed, and the epoch number (ServeQuerySeed): replaying the prefix
// through NewStream and resampling offline reproduces it bit for bit —
// the load harness is experiment E14 and the live demo is
// examples/service. The wire protocol follows the repo's versioned
// binary-frame idiom (CRC-trailed frames, append-only type space,
// fuzzed codec), and SIGTERM drains the daemon gracefully: in-flight
// requests are answered, new connections refused.
//
// All randomness is seeded and the library is deterministic for a fixed
// seed at any GOMAXPROCS. ROADMAP.md records the system's direction and
// open items; CHANGES.md records what each PR landed.
package repro
