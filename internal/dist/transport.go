package dist

// Transport is the seam between the round engine and the medium that
// carries messages between rounds. The engine runs the synchronous
// schedule (compute phase → EndRound barrier → next round); the
// transport decides how staged messages physically travel: through
// the exchange core inside one process (ShardedTransport — one
// logical staging area for the in-memory transport, a
// vertex-partitioned exchange across worker goroutines for the sharded
// one), or over a real network between processes (NetTransport).
//
// A transport owns two coupled concerns:
//
//   - Messaging: Send stages a message during a round, Recv reads the
//     mailbox delivered by the previous EndRound, and EndRound is the
//     round barrier that flips staged traffic into readable mailboxes
//     and returns the round's traffic tally for the engine's ledger.
//
//   - Execution: ForWorkers partitions a round's compute phase over the
//     transport's workers so that every vertex is visited by the worker
//     that owns it. Keeping execution next to ownership is what makes
//     Send race-free without locks, via the staging discipline of the
//     exchange core (exchange.go): sender-staged kinds are staged by
//     the worker owning Message.From, receiver-staged kinds — whose
//     payloads are pure functions of the seed — by the worker owning
//     the recipient. Payloads always carry snapshot state from the
//     start of the round, so the staging side is unobservable to
//     algorithms.
//
// Concurrency contract: Send may be called only from the worker the
// staging discipline assigns (the owner of Message.From for
// sender-staged kinds, the owner of `to` otherwise) during a
// ForWorkers compute phase, or from any single goroutine outside one.
// Recv(v) may be called only by v's owner during a compute phase, or
// from any single goroutine outside one. EndRound must be called with
// no compute phase in flight.
type Transport interface {
	// Shards returns the ownership partition size: 1 for the in-memory
	// transport, P for the sharded and network ones. Stats.Shards
	// records it.
	Shards() int
	// Workers returns the execution partition size of ForWorkers. For
	// the sharded and network transports this equals Shards; the
	// in-memory transport uses parutil's grain-adaptive worker count.
	Workers() int
	// ForWorkers runs body(worker, lo, hi) concurrently over a fixed
	// partition of the vertex range, once per worker present in this
	// process. The call is a barrier: it returns only after every local
	// worker finishes. The partition is stable across calls, and each
	// vertex is visited by its owning worker. On the network transport
	// only the process's own shard runs locally — the other workers are
	// other processes executing the same phase.
	ForWorkers(body func(worker, lo, hi int))
	// Send stages m for vertex `to` in the current round; it becomes
	// readable via Recv after the round's EndRound barrier.
	Send(to int32, m Message)
	// Recv returns the messages delivered to v by the last EndRound,
	// i.e. the traffic sent during the previous round. The returned
	// slice is recycled — callers must not retain it across two
	// EndRound calls.
	Recv(v int32) []Message
	// EndRound closes round r: staged messages become the mailboxes
	// readable until the next EndRound, and it returns their tally.
	// Messages are billed when staged, on the staging worker's row, so
	// the barrier only sums row tallies. On the network transport the
	// returned tally is the global one — every process sends every
	// other its local (own-row) tally and sums the P of them — so the
	// ledger is identical on every process and to the in-memory
	// transport's.
	EndRound(round int) RoundTally
}

// RoundTally is what one round's traffic contributes to the ledger.
type RoundTally struct {
	Messages int64
	Words    int64
	// MaxMessageWords is the widest single payload of the round.
	MaxMessageWords int
	// CrossShardMessages/Words count the subset of the traffic whose
	// sender and recipient are owned by different shards — the volume a
	// multi-machine deployment would put on the wire. Always zero for
	// single-shard transports.
	CrossShardMessages int64
	CrossShardWords    int64
}

// collectiveTransport is the optional control-plane interface a
// transport implements when its workers live in separate address
// spaces: small synchronous all-reduce operations the algorithms use
// for decisions that a single-process transport reads off shared
// memory (a global max depth, "did any shard make progress?", the
// sorted union of owned bundle-edge ids for renumbering). These are
// barriers, not billed traffic: they model the O(1)-word convergecast
// a real deployment would piggyback on its round barrier, and the
// single-process transports implement them as the identity.
type collectiveTransport interface {
	// AllMaxInt32 returns the maximum of x across all shards.
	AllMaxInt32(x int32) int32
	// AllOrWord returns the bitwise OR of w across all shards.
	AllOrWord(w uint64) uint64
	// AllGatherInt32s returns the sorted union of the shards' id
	// lists. Each shard must pass a sorted list, and the lists must be
	// pairwise disjoint (each id contributed by exactly one owner), so
	// the union's length is the sum of the contributions.
	AllGatherInt32s(xs []int32) []int32
}
