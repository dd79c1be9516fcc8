package dist

import "repro/internal/parutil"

// ShardedTransport runs a job's rounds inside one process on the
// exchange core. Its worker goroutines stage into per-shard-pair
// buckets during compute phases, and EndRound is the synchronous
// flush-and-barrier that drains them into mailboxes. Two constructors
// cover the two in-process specs:
//
//   - NewShardedTransport(n, p) partitions the vertex set across P
//     shards, each served by one worker goroutine — the in-process twin
//     of NetTransport: shard = machine, pair bucket = network stream,
//     CrossShard tally = wire volume. Here the "machines" are
//     goroutines and the "wire" is a memcpy, but every message is
//     routed, buffered, and billed exactly as the network transport
//     routes, buffers, and bills it.
//   - NewMemTransport(n) is the original single-staging-area
//     simulation: parutil's grain-adaptive worker partition for the
//     staging rows and one ownership shard for billing, so there is no
//     cross-shard traffic.
//
// Determinism: both partitions are pure functions of their sizes, all
// buckets are drained in staging-shard order at the barrier, and the
// algorithms above fold their mailboxes with order-independent
// reductions — so the outputs are bit-identical for equal seeds at any
// P and any GOMAXPROCS. The ledger's Rounds and per-phase Words are
// identical too; only the CrossShard split (zero in memory) differs.
type ShardedTransport struct {
	x *exchanger
}

// NewShardedTransport returns a transport over n vertices partitioned
// across p shards (clamped to [1, max(n,1)]).
func NewShardedTransport(n, p int) *ShardedTransport {
	return &ShardedTransport{x: newExchanger(n, p, p)}
}

// NewMemTransport returns the in-memory transport for n vertices. Its
// worker partition is parutil's `s*n/p` blocked partition, frozen at
// construction so the staging rows of Send and the compute partition
// can never disagree (parutil re-reads GOMAXPROCS per call).
func NewMemTransport(n int) *ShardedTransport {
	return &ShardedTransport{x: newExchanger(n, parutil.Workers(n), 1)}
}

// Shards returns the ownership shard count: P, or 1 in memory.
func (t *ShardedTransport) Shards() int { return t.x.owner.p }

// Workers returns the worker goroutine count: one per shard, or
// parutil's grain-adaptive count in memory.
func (t *ShardedTransport) Workers() int { return t.x.exec.p }

// ForWorkers runs body once per worker over its vertex range,
// concurrently, and joins them — the fork half of the round barrier.
func (t *ShardedTransport) ForWorkers(body func(worker, lo, hi int)) {
	t.x.forWorkers(body)
}

// Send stages and bills m under the exchange core's staging
// discipline: into the row of the worker owning m.From for
// sender-staged kinds, into the recipient owner's row otherwise. Rows
// are touched by no other worker, so the append is race-free.
func (t *ShardedTransport) Send(to int32, m Message) {
	t.x.send(to, m)
}

// Recv returns the messages delivered to v by the last EndRound.
func (t *ShardedTransport) Recv(v int32) []Message { return t.x.recv(v) }

// EndRound is the round barrier: each shard, in parallel, clears the
// mailboxes it owns and drains its incoming pair buckets (staging
// shards in index order) into them. Send billed every message, local
// and cross-shard separately, on its staging row; the row tallies
// merge in row order, so the ledger is deterministic.
func (t *ShardedTransport) EndRound(int) RoundTally {
	return t.x.drainAll()
}
