package dist

import "repro/internal/parutil"

// ShardedTransport runs a job's rounds inside one process on the
// exchange core. Its worker goroutines bill what they send on their own
// rows during compute phases and write posts onto the shared post
// board, and EndRound is the synchronous barrier that makes the posts
// readable and sums the rows. Nothing is staged or moved: every reader
// of a message either re-derives it from the seed or shares the
// sender's memory. Two constructors cover the two in-process specs:
//
//   - NewShardedTransport(n, p) partitions the vertex set across P
//     shards, each served by one worker goroutine — the in-process twin
//     of NetTransport: shard = machine, CrossShard tally = wire volume.
//     Every message is billed exactly as the network transport bills
//     it.
//   - NewMemTransport(n) is the original single-process simulation:
//     parutil's grain-adaptive worker partition for the rows and one
//     ownership shard for billing, so there is no cross-shard traffic.
//
// Determinism: both partitions are pure functions of their sizes, the
// row tallies are summed in row order, and posts are read in the
// reader's slot order — so the outputs are bit-identical for equal
// seeds at any P and any GOMAXPROCS. The ledger's Rounds and per-phase
// Words are identical too; only the CrossShard split (zero in memory)
// differs.
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
// construction so the rows Send bills on and the compute partition
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

// Send bills m on the row of the worker owning the recipient, which
// is the caller during a compute phase (see Transport.Send).
func (t *ShardedTransport) Send(to int32, m Message) {
	r := t.x.exec.shardOf(to)
	t.x.bill(r, r, m)
}

// Post stores m on the post board and bills it on the row of the
// worker owning m.From. The board is shared memory, so nothing moves
// at the barrier.
func (t *ShardedTransport) Post(m Message) {
	t.x.post(t.x.exec.shardOf(m.From), m)
}

func (t *ShardedTransport) board() *postBoard { return &t.x.board }

// EndRound is the round barrier: it makes the round's posts readable
// and returns the sum of the row tallies, merged in row order, so the
// ledger is deterministic.
func (t *ShardedTransport) EndRound(int) RoundTally {
	return t.x.endRound()
}
