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
//     payloads that can cross the wire (the spanner sends the first
//     two, its neighbour exchanges, as posts; see below);
//
//   - receiver-staged kinds (MsgSampled, MsgKeep) carry payloads that
//     are pure functions of the seed, which the recipient's owner
//     re-derives locally; they are staged by the worker that owns the
//     recipient and never travel, but are billed identically on every
//     transport (cross-shard when From and to have different owners).
//
// Billing happens once, at staging, on the tally of the row the
// message lands in. The barrier only moves messages: in process it
// sums the P row tallies, and a network process's local tally is its
// own row's.
//
// At the barrier every recipient shard drains its column in staging
// shard order (0..P-1, own row in place), so mailbox order is
// identical whether the rows were filled by goroutines or arrived as
// network frames.
//
// Posts. The spanner's neighbour exchanges (MsgCenter, MsgNewCenter)
// send one vertex's word to every live neighbour, so they skip the
// rows and mailboxes: post stores the word once on the post board (one
// entry per vertex, O(n) words beside the labels) and bills it on the
// poster's row once per live edge of the poster in the board's view —
// the same messages, words and cross-shard split the per-edge
// envelopes were billed. The bill is read off counts: the board
// keeps each vertex's live and cross-shard slot counts, counted
// once when the view is set (setView) and kept at every drop of an
// edge (drop, the only writer of the view's dead mask while it is
// set). After the barrier a recipient walks its own live slots and
// reads each neighbour's entry (postBoard.heard). Posts are
// sender-staged: only the poster's owner writes its entry. The network
// transport carries a post across a link once, as one record per
// (poster, destination shard holding one of its live edges), and the
// receiver checks its count against its own view's and writes it onto
// its own board at the barrier.

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

// shardOf returns the shard owning v in [0, n) by a binary search of
// the bounds: graph.ShardOfVertex's map without its divisions.
func (pt partition) shardOf(v int32) int {
	s := 0
	for n := pt.p; n > 1; n -= n / 2 { // the owner is in [s, s+n)
		if int(v) >= pt.bounds[s+n/2] {
			s += n / 2
		}
	}
	return s
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

// posted reports whether messages of kind k are neighbour exchanges,
// which travel as posts (Transport.Post) and carry a cluster id in A.
func (k MsgKind) posted() bool { return k == MsgCenter || k == MsgNewCenter }

// exchanger holds the staging rows and mailboxes of one transport.
// exec is the execution partition (staging rows and drain columns);
// owner is the ownership partition used for cross-shard billing — the
// two coincide for the sharded and network transports, while the
// in-memory transport executes on parutil's worker partition but owns
// everything in a single billing shard. So whenever owner has more
// than one shard it is exec, and billing reads exec's routing.
type exchanger struct {
	exec    partition
	owner   partition
	rows    []stagingRow // rows[d]: worker d's staging, written by d alone
	mailbox [][]Message  // per-vertex mailboxes rebuilt at each barrier
	board   postBoard
}

// stagingRow is one worker's outgoing traffic: a bucket per recipient
// shard and the row's tally, 24 + 40 bytes — one cache line each, so
// the P workers billing at once do not share one.
type stagingRow struct {
	to    [][]envelope
	tally RoundTally
}

func newExchanger(n, execP, ownerP int) *exchanger {
	x := &exchanger{
		exec:    newPartition(n, execP),
		owner:   newPartition(n, ownerP),
		mailbox: make([][]Message, n),
	}
	x.board = postBoard{owner: x.owner, posts: make([]postEntry, n), now: 1, live: make([]int32, n)}
	if x.owner.p > 1 {
		x.board.cross = make([]int32, n)
	}
	x.rows = make([]stagingRow, x.exec.p)
	for d := range x.rows {
		x.rows[d].to = make([][]envelope, x.exec.p)
	}
	return x
}

// route returns the row d the staging discipline assigns to a message
// (the owner of From for sender-staged kinds, the owner of `to`
// otherwise), the recipient's shard r, and whether it is billed as
// cross-shard traffic.
func (x *exchanger) route(to int32, m Message) (d, r int, cross bool) {
	r = x.exec.shardOf(to)
	if m.From < 0 {
		return r, r, false
	}
	from := x.exec.shardOf(m.From)
	d = r
	if m.Kind.senderStaged() {
		d = from
	}
	return d, r, x.owner.p > 1 && from != r
}

// stage appends m for vertex `to` to bucket r of row d and bills it
// on the row's tally — the one place a message is billed.
func (x *exchanger) stage(d, r int, cross bool, to int32, m Message) {
	row := &x.rows[d]
	row.to[r] = append(row.to[r], envelope{to: to, m: m})
	w, c := int64(m.Kind.Words()), int64(0)
	if cross {
		c = 1
	}
	row.tally.add(RoundTally{Messages: 1, Words: w, MaxMessageWords: int(w), CrossShardMessages: c, CrossShardWords: c * w})
}

// send stages m for vertex `to` in the row of the worker the staging
// discipline assigns (see the package comment above). It must be called
// by that worker during a compute phase, or by any single goroutine
// outside one.
func (x *exchanger) send(to int32, m Message) {
	d, r, cross := x.route(to, m)
	x.stage(d, r, cross, to, m)
}

// post stores m on the board as the round's post of its poster
// u = m.From and bills it on row d once per live slot of u in the
// board's view, as cross-shard traffic where the other end has
// another owner: both counts are the board's.
// It must be called by u's owner during a compute phase, or by any
// single goroutine outside one.
func (x *exchanger) post(d int, m Message) {
	b := &x.board
	b.put(m)
	if live := int64(b.liveSlots(m.From)); live > 0 {
		cross := int64(0)
		if b.cross != nil {
			cross = int64(b.cross[m.From])
		}
		w := int64(m.Kind.Words())
		x.rows[d].tally.add(RoundTally{Messages: live, Words: live * w, MaxMessageWords: int(w), CrossShardMessages: cross, CrossShardWords: cross * w})
	}
}

// recv returns the messages delivered to v by the last drain.
func (x *exchanger) recv(v int32) []Message { return x.mailbox[v] }

// drainColumn clears the mailboxes of recipient shard r and drains its
// incoming buckets (staging shards in index order) into them. The
// messages were billed when staged. Safe to run concurrently for
// distinct r.
func (x *exchanger) drainColumn(r int) {
	x.clearMailboxes(r)
	for d := range x.rows {
		x.deliver(x.takeRow(d, r))
	}
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

// drainAll drains every column (one worker per recipient shard), makes
// the round's posts readable, and sums the row tallies in row order —
// the whole in-process barrier.
func (x *exchanger) drainAll() RoundTally {
	x.forWorkers(func(r, _, _ int) { x.drainColumn(r) })
	x.board.now++
	var total RoundTally
	for d := range x.rows {
		total.add(x.takeTally(d))
	}
	return total
}

// takeRow detaches and returns worker d's outgoing bucket for shard r,
// leaving an empty (capacity-preserving) bucket behind. The network
// transport uses it to move staged traffic onto the wire.
func (x *exchanger) takeRow(d, r int) []envelope {
	buf := x.rows[d].to[r]
	x.rows[d].to[r] = buf[:0]
	return buf
}

// takeTally returns what row d billed since the last take and zeroes
// the row's tally.
func (x *exchanger) takeTally(d int) RoundTally {
	t := x.rows[d].tally
	x.rows[d].tally = RoundTally{}
	return t
}

// clearMailboxes resets the mailboxes of shard r without draining.
func (x *exchanger) clearMailboxes(r int) {
	for v := x.exec.bounds[r]; v < x.exec.bounds[r+1]; v++ {
		x.mailbox[v] = x.mailbox[v][:0]
	}
}

// deliver appends one envelope batch to the mailboxes.
func (x *exchanger) deliver(batch []envelope) {
	for _, env := range batch {
		x.mailbox[env.to] = append(x.mailbox[env.to], env.m)
	}
}

// add folds tally u into t.
func (t *RoundTally) add(u RoundTally) {
	t.Messages += u.Messages
	t.Words += u.Words
	t.CrossShardMessages += u.CrossShardMessages
	t.CrossShardWords += u.CrossShardWords
	t.MaxMessageWords = max(t.MaxMessageWords, u.MaxMessageWords)
}

// postBoard holds the posts of the neighbour exchanges: per vertex the
// last message it posted, stamped with the barrier count at which it is
// readable, and the view whose live slots a post crosses, with each
// vertex's live-slot counts. A post made in round r is heard from the
// barrier that closes r until the next one, so the board is never
// cleared between rounds.
type postBoard struct {
	// adj, edges and dead are the view: a post by u crosses each slot
	// of u in adj whose (local) edge id is not dead, and edges holds
	// each local id's endpoints. The round engine sets them
	// (roundEngine.PostView, through setView) for the rounds that post.
	adj   *graph.Adjacency
	edges []graph.Edge
	dead  []bool
	// live[v] counts v's live slots in the view and cross[v] those
	// whose other end another owner shard holds (cross is nil with one
	// owner shard). setView counts them; drop keeps them.
	live, cross []int32
	owner       partition
	// posts[v] is v's last post; now counts the barriers closed since
	// the board was made or reset, from 1, so a zero stamp is never
	// readable.
	posts []postEntry
	now   uint32
}

// postEntry is one vertex's post: the payload of a Message (its sender
// is the board index, its port the edge a reader walks) and its stamp.
type postEntry struct {
	at      uint32 // the barrier count from which the post is heard
	kind    MsgKind
	a, b, c int32
}

// setView sets the view posts cross and counts every vertex's live and
// cross-shard slots in it: one walk of the view, made once per view,
// owner shard by owner shard (adj spans the board's n vertices). From
// then on the dead mask must change only through drop, which keeps the
// counts. A nil adj clears the view.
func (b *postBoard) setView(adj *graph.Adjacency, edges []graph.Edge, dead []bool) {
	b.adj, b.edges, b.dead = adj, edges, dead
	if adj == nil {
		return
	}
	for s := range b.owner.p {
		olo, ohi := int32(b.owner.bounds[s]), int32(b.owner.bounds[s+1])
		for u := olo; u < ohi; u++ {
			lo, hi := adj.Range(u)
			nbrs := adj.Nbr[lo:hi]
			var live, cross int32
			for i, eid := range adj.EID[lo:hi] {
				if dead[eid] {
					continue
				}
				live++
				if nbr := nbrs[i]; nbr < olo || nbr >= ohi {
					cross++
				}
			}
			b.live[u] = live
			if b.cross != nil {
				b.cross[u] = cross
			}
		}
	}
}

// drop marks local edge lid dead and takes it off the live (and,
// across owner shards, the cross-shard) counts of both endpoints; an
// edge already dead is left as it is.
func (b *postBoard) drop(lid int32) {
	if b.dead[lid] {
		return
	}
	b.dead[lid] = true
	e := b.edges[lid]
	b.live[e.U]--
	if e.V == e.U {
		return // a self-loop holds one slot
	}
	b.live[e.V]--
	if b.cross == nil {
		return
	}
	if s := b.owner.shardOf(e.U); e.V < int32(b.owner.bounds[s]) || e.V >= int32(b.owner.bounds[s+1]) {
		b.cross[e.U]--
		b.cross[e.V]--
	}
}

// put stores m as its sender's post of the current round.
func (b *postBoard) put(m Message) {
	b.posts[m.From] = postEntry{at: b.now + 1, kind: m.Kind, a: m.A, b: m.B, c: m.C}
}

// heard returns the message v posted in the round the last barrier
// closed, and whether v posted in it.
func (b *postBoard) heard(v int32) (Message, bool) {
	p := &b.posts[v]
	if p.at != b.now {
		return Message{}, false
	}
	return Message{From: v, Kind: p.kind, A: p.a, B: p.b, C: p.c}, true
}

// liveSlots returns the number of slots of u in the view whose edge is
// not dead.
func (b *postBoard) liveSlots(u int32) int32 { return b.live[u] }

// reset forgets every post and the view: what an aborted attempt
// posted is never heard by its replay, and the replay's view is
// counted afresh.
func (b *postBoard) reset() {
	clear(b.posts)
	b.now = 1
	b.setView(nil, nil, nil)
}
