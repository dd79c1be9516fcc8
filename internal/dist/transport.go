package dist

import "repro/internal/parutil"

// Transport is the seam between the round engine and the medium that
// carries messages between rounds. The engine runs the synchronous
// schedule (compute phase → EndRound barrier → next round); the
// transport decides how staged messages physically travel: a single
// in-memory staging area (MemTransport), a vertex-partitioned exchange
// across worker goroutines (ShardedTransport), or a real network
// between processes (NetTransport).
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
	// ShardOf returns the shard that owns vertex v.
	ShardOf(v int32) int
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
	// Send stages m for vertex `to` during round r; it becomes readable
	// via Recv after the EndRound(r) barrier.
	Send(round int, to int32, m Message)
	// Recv returns the messages delivered to v by the last EndRound,
	// i.e. the traffic sent during round-1. The returned slice is
	// recycled — callers must not retain it across two EndRound calls.
	Recv(round int, v int32) []Message
	// EndRound closes round r: staged messages are tallied and become
	// the mailboxes readable until the next EndRound. On the network
	// transport the returned tally is the globally reduced one (the
	// round-tally handshake), so the ledger is identical on every
	// process and to the in-memory transport's.
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

// MemTransport is the original single-staging-area simulation, now
// running on the shared exchange core with parutil's grain-adaptive
// worker partition for staging rows and a single ownership shard for
// billing. It is the default transport and behaves exactly like the
// pre-Transport engine: one logical staging area, flipped wholesale
// into mailboxes at the round barrier, no cross-shard traffic.
type MemTransport struct {
	x *exchanger
}

// NewMemTransport returns the in-memory transport for n vertices.
func NewMemTransport(n int) *MemTransport {
	return &MemTransport{x: newExchanger(n, parutil.Workers(n), 1)}
}

// Shards reports the single ownership domain of the in-memory medium.
func (t *MemTransport) Shards() int { return 1 }

// ShardOf places every vertex in shard 0.
func (t *MemTransport) ShardOf(int32) int { return 0 }

// Workers returns parutil's grain-adaptive worker count for n vertices.
func (t *MemTransport) Workers() int { return t.x.exec.p }

// ForWorkers runs body over the exchange core's worker partition —
// the same `s*n/p` blocked partition parutil.ForShard would build, but
// frozen at construction so the staging rows of Send and the compute
// partition can never disagree (parutil re-reads GOMAXPROCS per call).
// Execution order matches the pre-Transport engine's callers, so any
// shard-ordered collection built on it is unchanged.
func (t *MemTransport) ForWorkers(body func(worker, lo, hi int)) {
	t.x.forWorkers(body)
}

// Send stages m for vertex `to` in the current round.
func (t *MemTransport) Send(_ int, to int32, m Message) {
	t.x.send(to, m)
}

// Recv returns the messages delivered to v by the last EndRound.
func (t *MemTransport) Recv(_ int, v int32) []Message { return t.x.recv(v) }

// EndRound tallies the staged traffic and drains it into the mailboxes.
func (t *MemTransport) EndRound(int) RoundTally {
	return t.x.drainAll()
}
