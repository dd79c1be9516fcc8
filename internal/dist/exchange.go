package dist

import (
	"sync"

	"repro/internal/graph"
)

// The exchange core: the shard-pair staging, barrier drain, and traffic
// tally shared by every transport. ShardedTransport uses it with one
// worker goroutine per shard (or, as the in-memory transport, with the
// grain-adaptive worker partition and one billing shard), and
// NetTransport with one OS process per shard — the buckets a process
// stages for remote shards are exactly the byte batches it flushes
// onto the wire at the round barrier. The rows are keyed by
// destination shard, so the staging is already direct-destination:
// the network transport serializes each bucket into a frame addressed
// From→To and writes it straight onto the destination's connection
// (handing a worker peer's flush to that connection's writer
// goroutine).
//
// Staging discipline. A message is appended to the row of the worker
// that stages it, so rows need no locks:
//
//   - sender-staged kinds (MsgCenter, MsgNewCenter, MsgAdd, MsgDrop)
//     carry real remote state and are staged by the worker that owns
//     the sender From — on the network transport these are the only
//     payloads that can cross the wire;
//
//   - receiver-staged kinds (MsgSampled, MsgKeep) carry payloads that
//     are pure functions of the seed, which the recipient's owner
//     re-derives locally; they are staged by the worker that owns the
//     recipient and never travel, but are billed identically on every
//     transport (cross-shard when From and to have different owners).
//
// At the barrier every recipient shard drains its column in staging
// shard order (0..P-1, own row in place), so mailbox order — and with
// it every tally — is identical whether the rows were filled by
// goroutines or arrived as network frames.

// partition is a balanced contiguous vertex partition (see
// graph.ShardBounds; the formula lives in the leaf package so the
// graph loader and the transports cannot disagree).
type partition struct {
	n, p   int
	bounds []int
}

func newPartition(n, p int) partition {
	p = graph.ClampShards(n, p)
	return partition{n: n, p: p, bounds: graph.ShardBounds(n, p)}
}

func (pt partition) shardOf(v int32) int {
	return graph.ShardOfVertex(pt.n, pt.p, v)
}

// envelope is one staged message plus its routing address.
type envelope struct {
	to int32
	m  Message
}

// senderStaged reports whether messages of kind k are staged by the
// sender's owning worker (payloads carrying remote state) rather than
// the recipient's (payloads the recipient's owner derives locally).
func (k MsgKind) senderStaged() bool {
	switch k {
	case MsgCenter, MsgNewCenter, MsgAdd, MsgDrop:
		return true
	}
	return false
}

// exchanger holds the staging rows and mailboxes of one transport.
// exec is the execution partition (staging rows and drain columns);
// owner is the ownership partition used for cross-shard billing — the
// two coincide for the sharded and network transports, while the
// in-memory transport executes on parutil's worker partition but owns
// everything in a single billing shard.
type exchanger struct {
	exec  partition
	owner partition
	// staged[d][r]: messages staged by worker d for recipients owned by
	// worker r. Only worker d appends to row d.
	staged  [][][]envelope
	mailbox [][]Message // per-vertex mailboxes rebuilt at each barrier
}

func newExchanger(n, execP, ownerP int) *exchanger {
	x := &exchanger{
		exec:    newPartition(n, execP),
		owner:   newPartition(n, ownerP),
		mailbox: make([][]Message, n),
	}
	x.staged = make([][][]envelope, x.exec.p)
	for d := range x.staged {
		x.staged[d] = make([][]envelope, x.exec.p)
	}
	return x
}

// stagingShard returns the row the staging discipline assigns to a
// message: the owner of From for sender-staged kinds, the owner of
// `to` otherwise.
func (x *exchanger) stagingShard(to int32, m Message) int {
	if m.Kind.senderStaged() && m.From >= 0 {
		return x.exec.shardOf(m.From)
	}
	return x.exec.shardOf(to)
}

// send stages m for vertex `to` in the row of the worker the staging
// discipline assigns (see the package comment above). It must be called
// by that worker during a compute phase, or by any single goroutine
// outside one.
func (x *exchanger) send(to int32, m Message) {
	d := x.stagingShard(to, m)
	r := x.exec.shardOf(to)
	x.staged[d][r] = append(x.staged[d][r], envelope{to: to, m: m})
}

// recv returns the messages delivered to v by the last drain.
func (x *exchanger) recv(v int32) []Message { return x.mailbox[v] }

// bill tallies one message against the ownership partition.
func (x *exchanger) bill(tally *RoundTally, env envelope) {
	w := env.m.Kind.Words()
	tally.Messages++
	tally.Words += int64(w)
	if w > tally.MaxMessageWords {
		tally.MaxMessageWords = w
	}
	if env.m.From >= 0 && x.owner.p > 1 &&
		x.owner.shardOf(env.m.From) != x.owner.shardOf(env.to) {
		tally.CrossShardMessages++
		tally.CrossShardWords += int64(w)
	}
}

// drainColumn clears the mailboxes of recipient shard r and drains its
// incoming buckets (staging shards in index order) into them, tallying
// as it goes. Safe to run concurrently for distinct r.
func (x *exchanger) drainColumn(r int) RoundTally {
	var tally RoundTally
	for v := x.exec.bounds[r]; v < x.exec.bounds[r+1]; v++ {
		x.mailbox[v] = x.mailbox[v][:0]
	}
	for d := 0; d < x.exec.p; d++ {
		buf := x.staged[d][r]
		for _, env := range buf {
			x.bill(&tally, env)
			x.mailbox[env.to] = append(x.mailbox[env.to], env.m)
		}
		x.staged[d][r] = buf[:0]
	}
	return tally
}

// forWorkers runs body once per execution worker over the worker's
// vertex range, concurrently, and joins them — the fork/join half of
// the round barrier shared by the in-process transports.
func (x *exchanger) forWorkers(body func(worker, lo, hi int)) {
	if x.exec.n <= 0 {
		return
	}
	if x.exec.p == 1 {
		body(0, 0, x.exec.n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(x.exec.p)
	for s := 0; s < x.exec.p; s++ {
		go func(s int) {
			defer wg.Done()
			body(s, x.exec.bounds[s], x.exec.bounds[s+1])
		}(s)
	}
	wg.Wait()
}

// drainAll drains every column (one worker per recipient shard) and
// merges the tallies in shard order — the whole in-process barrier.
func (x *exchanger) drainAll() RoundTally {
	tallies := make([]RoundTally, x.exec.p)
	x.forWorkers(func(r, _, _ int) {
		tallies[r] = x.drainColumn(r)
	})
	return mergeTallies(tallies)
}

// takeRow detaches and returns worker d's outgoing bucket for shard r,
// leaving an empty (capacity-preserving) bucket behind. The network
// transport uses it to move staged traffic onto the wire.
func (x *exchanger) takeRow(d, r int) []envelope {
	buf := x.staged[d][r]
	x.staged[d][r] = buf[:0]
	return buf
}

// clearMailboxes resets the mailboxes of shard r without draining.
func (x *exchanger) clearMailboxes(r int) {
	for v := x.exec.bounds[r]; v < x.exec.bounds[r+1]; v++ {
		x.mailbox[v] = x.mailbox[v][:0]
	}
}

// deliverInto appends one envelope batch into the mailboxes of the
// local shard, billing into tally.
func (x *exchanger) deliverInto(tally *RoundTally, batch []envelope) {
	for _, env := range batch {
		x.bill(tally, env)
		x.mailbox[env.to] = append(x.mailbox[env.to], env.m)
	}
}

// mergeTallies folds per-shard tallies in shard order.
func mergeTallies(tallies []RoundTally) RoundTally {
	var total RoundTally
	for _, t := range tallies {
		total.Messages += t.Messages
		total.Words += t.Words
		total.CrossShardMessages += t.CrossShardMessages
		total.CrossShardWords += t.CrossShardWords
		if t.MaxMessageWords > total.MaxMessageWords {
			total.MaxMessageWords = t.MaxMessageWords
		}
	}
	return total
}
