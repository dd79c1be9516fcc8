package dist

import (
	"sync"

	"repro/internal/graph"
)

// The exchange core: the billing rows, the post board and the
// fork/join of a round's compute phase, shared by every transport.
// ShardedTransport uses it with one worker goroutine per shard (or, as
// the in-memory transport, with the grain-adaptive worker partition and
// one billing shard), and NetTransport with one OS process per shard.
//
// Billing. A message is billed once, when it is sent, on the tally of
// the row of the worker that sends it, so rows need no locks: during a
// compute phase Send is called only by the worker owning the recipient
// (MsgSampled, MsgKeep) and Post by the worker owning the poster, and
// outside one a single goroutine sends (the spanner's MsgAdd/MsgDrop
// notices). A message is billed as cross-shard traffic where its sender
// and recipient have different owners. The barrier moves nothing in
// process: it sums the P row tallies, and a network process's local
// tally is its own row's.
//
// Nothing is staged in process. A message's recipient either re-derives
// its payload from the seed (MsgSampled, MsgKeep) or shares the
// sender's memory, which the sender already updated (the notices), so
// the in-process transports bill and stop there. Only the network
// transport moves messages: a notice whose recipient another process
// owns is staged in a bucket for that process and written onto the wire
// at the barrier (see net.go).
//
// Posts. The spanner's neighbour exchanges (MsgCenter, MsgNewCenter)
// send one vertex's word to every live neighbour: post stores the word
// once on the post board (one entry per vertex, O(n) words beside the
// labels) and bills it on the poster's row once per live edge of the
// poster in the board's view — the same messages, words and
// cross-shard split that one message per edge would bill. The bill is
// read off counts: the board keeps each vertex's live and cross-shard
// slot counts, counted once when the view is set (setView) and kept at
// every drop of an edge (drop, the only writer of the view's dead mask
// while it is set). After the barrier a recipient walks its own live
// slots and reads each neighbour's entry (postBoard.heard). Only the
// poster's owner writes its entry. The network transport carries a post
// across a link once, as one record per (poster, destination shard
// holding one of its live edges), and the receiver checks its count
// against its own view's and writes it onto its own board at the
// barrier.

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

// posted reports whether messages of kind k are neighbour exchanges,
// which travel as posts (Transport.Post) and carry a cluster id in A.
func (k MsgKind) posted() bool { return k == MsgCenter || k == MsgNewCenter }

// exchanger holds the billing rows and the post board of one
// transport. exec is the execution partition (one row per worker);
// owner is the ownership partition used for cross-shard billing — the
// two coincide for the sharded and network transports, while the
// in-memory transport executes on parutil's worker partition but owns
// everything in a single billing shard. So whenever owner has more
// than one shard it is exec, and billing reads exec's routing.
type exchanger struct {
	exec  partition
	owner partition
	rows  []tallyRow // rows[d]: what worker d billed, written by d alone
	board postBoard
}

// tallyRow is one worker's tally (40 bytes), padded to a 64-byte
// cache line of its own, so the P workers billing at once do not share
// one.
type tallyRow struct {
	tally RoundTally
	_     [64 - 40]byte
}

func newExchanger(n, execP, ownerP int) *exchanger {
	x := &exchanger{
		exec:  newPartition(n, execP),
		owner: newPartition(n, ownerP),
	}
	x.board = postBoard{owner: x.owner, posts: make([]postEntry, n), now: 1, live: make([]int32, n)}
	if x.owner.p > 1 {
		x.board.cross = make([]int32, n)
	}
	x.rows = make([]tallyRow, x.exec.p)
	return x
}

// bill adds m, a message for a vertex of shard r, to row d's tally, as
// cross-shard traffic where another shard owns m.From (a message with
// no sender, From < 0, is local) — the one place a message is billed.
func (x *exchanger) bill(d, r int, m Message) {
	w, c := int64(m.Kind.Words()), int64(0)
	if x.owner.p > 1 && m.From >= 0 && x.exec.shardOf(m.From) != r {
		c = 1
	}
	x.rows[d].tally.add(RoundTally{Messages: 1, Words: w, MaxMessageWords: int(w), CrossShardMessages: c, CrossShardWords: c * w})
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

// endRound is the whole in-process barrier: it makes the round's posts
// readable and sums the row tallies in row order.
func (x *exchanger) endRound() RoundTally {
	x.board.now++
	var total RoundTally
	for d := range x.rows {
		total.add(x.takeTally(d))
	}
	return total
}

// takeTally returns what row d billed since the last take and zeroes
// the row's tally.
func (x *exchanger) takeTally(d int) RoundTally {
	t := x.rows[d].tally
	x.rows[d].tally = RoundTally{}
	return t
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
