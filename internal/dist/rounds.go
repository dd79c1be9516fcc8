package dist

import (
	"slices"

	"repro/internal/spanner"
)

// The round engine: a simulated synchronous message-passing network
// (the CONGEST-style model of the paper's Section on distributed
// implementation). Vertices are the processors; each round every vertex
// may send word-bounded messages to neighbors, and every message sent
// in round r is readable from the recipient's mailbox during round r+1.
//
// The engine runs the synchronous schedule and keeps the ledger; how
// messages physically travel between rounds is the Transport's job
// (see transport.go): in-memory staging by default, a vertex-sharded
// exchange across worker goroutines, or — the seam's purpose — a real
// network between OS processes (see transport.go and net.go; there
// the EndRound barrier is where batches hit sockets, written directly
// to the destination peer — asynchronously, overlapping the next
// round's compute, on the worker↔worker links, see mesh.go).
//
// Staging follows the exchange core's kind-based discipline (see
// exchange.go): payloads carrying real remote state are staged by the
// worker owning the sender, payloads that are pure functions of the
// seed by the worker owning the recipient. That is how the parallel
// per-vertex loops of the algorithms stay race-free — and how a
// multi-process transport knows which traffic must cross the wire —
// while the ledger still counts every directed message exactly once.
// Message payloads always carry snapshot state from the start of the
// round, so the staging side is unobservable to the algorithm.
//
// The neighbour exchanges post instead (Post, Heard): a vertex that
// sends the same word to every live neighbour posts it once, billed
// once per live edge of the round's post view (PostView), and each
// recipient reads it by walking its own live slots after the barrier.
// The bill comes from counts: PostView counts each vertex's live
// slots once, and every edge the algorithm drops afterwards goes
// through Drop, the only writer of the dead mask, which keeps the
// counts. The fold order is the reader's slot order — ascending edge
// id on every view — whatever transport carried the post.

// MsgKind identifies the payload schema of a message.
type MsgKind uint8

const (
	// MsgSampled travels parent→child down a cluster tree and carries
	// the cluster's sampled bit for the current iteration.
	MsgSampled MsgKind = iota
	// MsgCenter is the per-iteration neighbor exchange: the sender's
	// cluster id, its cluster-tree depth, and the cluster-sampled bit.
	MsgCenter
	// MsgAdd tells the recipient that the sender placed their shared
	// edge in the spanner.
	MsgAdd
	// MsgDrop tells the recipient that the sender discarded their
	// shared edge from the working edge set E'.
	MsgDrop
	// MsgNewCenter is the post-decision center exchange used to discard
	// intra-cluster edges and to run the final vertex–cluster joins.
	MsgNewCenter
	// MsgKeep announces a uniform-sampling verdict for an off-bundle
	// edge during Algorithm 1's sampling step.
	MsgKeep
)

// Words returns the payload size of the kind in O(log n)-bit words.
func (k MsgKind) Words() int {
	if k == MsgCenter {
		return 3
	}
	return 1
}

// Message is one payload crossing one edge in one round. Port is the
// edge over which it traveled — addressing, not payload, so it does not
// count toward Words (a real network identifies the arrival link for
// free). A, B, and C are the payload words.
type Message struct {
	From    int32
	Port    int32
	Kind    MsgKind
	A, B, C int32
}

// roundEngine simulates the synchronous network for a fixed vertex set
// and accumulates the communication ledger. Messages travel through the
// engine's Transport; the ledger is transport-independent up to the
// CrossShard split (see Stats). It is the execution substrate below the
// public Engine/Job surface: jobs drive it round by round, Engine.Run
// constructs it over the transport a TransportSpec describes.
type roundEngine struct {
	n     int
	tr    Transport
	round int // index of the current round, incremented by EndRound
	stats Stats
	cur   int // index of the current phase in stats.Phases

	// boolFree/int32Free are the engine's scratch freelists: the round
	// loop re-runs the same mask- and label-sized allocations once per
	// spanner layer (t layers per sampling epoch), so recycling them
	// removes the dominant allocator traffic of a run. get/put are
	// called only from the round-orchestration goroutine (never inside
	// a ForVertices body), so no locking is needed.
	boolFree  [][]bool
	int32Free [][]int32

	// clusters holds each transport worker's Baswana–Sen grouping
	// accumulator, reused across iterations, layers and rounds: O(n)
	// words per worker, like the spanner's label arrays.
	clusters []*spanner.Clusters

	// board is the transport's post board, read by Heard without a
	// call through the Transport interface.
	board *postBoard

	// notes holds each worker's spanner decision notices (see
	// collectNotices), reused across rounds like the accumulators.
	notes [][]notice

	// slots holds each worker's per-slot scratch for the spanner's
	// decide step (see slotScratch): O(degree) words per worker.
	slots [][]int32
}

// clustersOf returns worker's cluster accumulator, making it on first
// use. It is called inside ForWorkers bodies; each worker touches only
// its own slot, which newRoundEngineOn sized.
func (e *roundEngine) clustersOf(worker int) *spanner.Clusters {
	if e.clusters[worker] == nil {
		e.clusters[worker] = spanner.NewClusters(e.n)
	}
	return e.clusters[worker]
}

// slotScratch returns worker's per-slot scratch with length n and
// arbitrary contents, grown as needed and reused by the next call. It
// is called inside ForWorkers bodies, each worker on its own slot.
func (e *roundEngine) slotScratch(worker, n int) []int32 {
	s := e.slots[worker]
	if cap(s) < n {
		s = slices.Grow(s[:0], n)
		e.slots[worker] = s
	}
	return s[:n]
}

// scratchFreeDepth bounds how many scratch slices each freelist holds.
const scratchFreeDepth = 8

// getBools returns a ZEROED scratch []bool of length n, reusing a
// pooled slice when one is large enough.
func (e *roundEngine) getBools(n int) []bool {
	for i := len(e.boolFree) - 1; i >= 0; i-- {
		if cap(e.boolFree[i]) >= n {
			b := e.boolFree[i][:n]
			e.boolFree[i] = e.boolFree[len(e.boolFree)-1]
			e.boolFree = e.boolFree[:len(e.boolFree)-1]
			for j := range b {
				b[j] = false
			}
			return b
		}
	}
	return make([]bool, n)
}

// putBools returns a scratch slice to the freelist. The caller must
// own it and drop every reference; a slice never returned is simply
// garbage collected.
func (e *roundEngine) putBools(b []bool) {
	if cap(b) > 0 && len(e.boolFree) < scratchFreeDepth {
		e.boolFree = append(e.boolFree, b)
	}
}

// getInt32s returns a scratch []int32 of length n with ARBITRARY
// contents — callers must write every index they later read (the
// spanner's label arrays are fully initialized each use).
func (e *roundEngine) getInt32s(n int) []int32 {
	for i := len(e.int32Free) - 1; i >= 0; i-- {
		if cap(e.int32Free[i]) >= n {
			s := e.int32Free[i][:n]
			e.int32Free[i] = e.int32Free[len(e.int32Free)-1]
			e.int32Free = e.int32Free[:len(e.int32Free)-1]
			return s
		}
	}
	return make([]int32, n)
}

// putInt32s returns a scratch slice to the freelist.
func (e *roundEngine) putInt32s(s []int32) {
	if cap(s) > 0 && len(e.int32Free) < scratchFreeDepth {
		e.int32Free = append(e.int32Free, s)
	}
}

// newRoundEngine returns an engine for n vertices on the default
// in-memory transport, with an empty ledger.
func newRoundEngine(n int) *roundEngine { return newRoundEngineOn(n, NewMemTransport(n)) }

// newRoundEngineOn returns an engine running over an explicit transport.
func newRoundEngineOn(n int, tr Transport) *roundEngine {
	e := &roundEngine{n: n, tr: tr, cur: -1, clusters: make([]*spanner.Clusters, tr.Workers()), board: tr.board(),
		notes: make([][]notice, tr.Workers()), slots: make([][]int32, tr.Workers())}
	e.stats.Shards = tr.Shards()
	return e
}

// BeginPhase directs subsequent rounds' accounting at the named phase,
// creating it on first use; repeated names merge (iterated stages show
// up as one row).
func (e *roundEngine) BeginPhase(name string) {
	for i := range e.stats.Phases {
		if e.stats.Phases[i].Name == name {
			e.cur = i
			return
		}
	}
	e.stats.Phases = append(e.stats.Phases, PhaseStats{Name: name})
	e.cur = len(e.stats.Phases) - 1
}

// Deliver stages a message for vertex `to` in the current round. It
// must be called only from the worker the staging discipline assigns —
// the owner of m.From for sender-staged kinds (MsgAdd, MsgDrop, and
// MsgCenter/MsgNewCenter, which the spanner posts instead), the owner
// of `to` for the pure seed-derived kinds (MsgSampled, MsgKeep) — or
// from a single goroutine outside a compute phase.
func (e *roundEngine) Deliver(to int32, m Message) {
	e.tr.Send(to, m)
}

// PostView sets the view later posts cross: the live slots of w's
// adjacency, whose EID slots index dead, and counts each vertex's live
// slots in it once. From then on the caller changes dead only through
// Drop. Call it outside a compute phase; nil, nil clears it once the
// posting rounds are over.
func (e *roundEngine) PostView(w *view, dead []bool) {
	if w == nil {
		e.board.setView(nil, nil, nil)
		return
	}
	e.board.setView(w.adj, w.edges, dead)
}

// Drop kills local edge lid in the post view: it marks lid dead and
// takes it off both endpoints' live-slot counts, so later posts bill
// without it. Dropping a dead edge again does nothing. Call it outside
// a compute phase.
func (e *roundEngine) Drop(lid int32) { e.board.drop(lid) }

// Post sends m from u over every live slot of u in the post view: one
// message per slot on the ledger, one entry on the board. The number
// of slots is read off the board's counts (see PostView).
// It must be called from u's owner (a sender-staged post), like
// Deliver.
func (e *roundEngine) Post(u int32, m Message) {
	m.From = u
	e.tr.Post(m)
}

// Heard returns the message v posted in the round the last EndRound
// closed, and whether v posted in it. A reader calls it for the
// neighbour at each of its own live slots; the slot is the port.
func (e *roundEngine) Heard(v int32) (Message, bool) { return e.board.heard(v) }

// ForVertices runs body(v) for every vertex, partitioned across the
// transport's workers so each vertex is visited by its owner — the
// compute half of a round. The call is a barrier.
func (e *roundEngine) ForVertices(body func(v int32)) {
	e.tr.ForWorkers(func(_, lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			body(int32(vi))
		}
	})
}

// collectVertices runs gen once per transport worker over the worker's
// vertex range and concatenates the results in worker order — the
// deterministic parallel filter/emit primitive of the compute phase
// (the engine-partitioned analogue of parutil.CollectShards).
func collectVertices[T any](e *roundEngine, gen func(worker, lo, hi int) []T) []T {
	if e.n <= 0 {
		return nil
	}
	parts := make([][]T, e.tr.Workers())
	e.tr.ForWorkers(func(worker, lo, hi int) {
		parts[worker] = gen(worker, lo, hi)
	})
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	out := make([]T, 0, total)
	for _, part := range parts {
		out = append(out, part...)
	}
	return out
}

// collectNotices runs gen once per transport worker over the worker's
// vertex range, gen appending to the worker's emptied notice list, and
// returns the lists in worker order. The lists are the engine's, reused
// by the next call: a round's notices cost no allocation once the lists
// have grown to the round's size.
func (e *roundEngine) collectNotices(gen func(worker, lo, hi int, out []notice) []notice) [][]notice {
	for i := range e.notes {
		e.notes[i] = e.notes[i][:0]
	}
	e.tr.ForWorkers(func(worker, lo, hi int) {
		e.notes[worker] = gen(worker, lo, hi, e.notes[worker])
	})
	return e.notes
}

// EndRound closes the current synchronous round: the transport's
// tally of the round's messages (billed as Deliver staged them) goes to
// the ledger, and the messages become the mailboxes readable until the
// next EndRound. Mailbox slices are recycled — callers must not retain
// them across two EndRound calls.
func (e *roundEngine) EndRound() {
	if e.cur < 0 {
		e.BeginPhase("main")
	}
	tally := e.tr.EndRound(e.round)
	e.round++
	e.stats.Rounds++
	e.stats.Messages += tally.Messages
	e.stats.Words += tally.Words
	e.stats.CrossShardMessages += tally.CrossShardMessages
	e.stats.CrossShardWords += tally.CrossShardWords
	if tally.MaxMessageWords > e.stats.MaxMessageWords {
		e.stats.MaxMessageWords = tally.MaxMessageWords
	}
	p := &e.stats.Phases[e.cur]
	p.Rounds++
	p.Messages += tally.Messages
	p.Words += tally.Words
	p.CrossShardMessages += tally.CrossShardMessages
	p.CrossShardWords += tally.CrossShardWords
}

// Mailbox returns the messages delivered to v by the last EndRound.
func (e *roundEngine) Mailbox(v int32) []Message { return e.tr.Recv(v) }

// allMaxInt32 reduces x to its maximum across all shards of the
// transport. Single-process transports compute loop-control values
// over shared memory, so the reduction is the identity there; the
// network transport runs a control-plane convergecast (not billed to
// the ledger — see collectiveTransport).
func (e *roundEngine) allMaxInt32(x int32) int32 {
	if c, ok := e.tr.(collectiveTransport); ok {
		return c.AllMaxInt32(x)
	}
	return x
}

// allOrWord reduces one word of flags by bitwise OR across all shards.
func (e *roundEngine) allOrWord(w uint64) uint64 {
	if c, ok := e.tr.(collectiveTransport); ok {
		return c.AllOrWord(w)
	}
	return w
}

// allGatherInt32s merges the shards' sorted, disjoint id lists into
// the globally sorted union, visible to every shard. Single-process
// transports hold the complete list already, so the gather is the
// identity there; the network transport runs a control-plane
// convergecast + broadcast (not billed — see collectiveTransport).
// Unlike the retired Θ(m)-bit mask merge this costs O(list) words,
// which for the bundle-id gather is the sparsifier's own output scale.
func (e *roundEngine) allGatherInt32s(xs []int32) []int32 {
	if c, ok := e.tr.(collectiveTransport); ok {
		return c.AllGatherInt32s(xs)
	}
	return xs
}

// restore rewinds the engine onto a checkpointed ledger snapshot — the
// recovery fast-forward. The engine's round counter and the ledger's
// Rounds advance in lockstep (EndRound increments both), so the
// snapshot alone pins the replay position; the next EndRound issues
// exactly the round number the failure-free run would have.
func (e *roundEngine) restore(s Stats) {
	e.stats = s
	e.stats.Phases = append([]PhaseStats(nil), s.Phases...)
	e.stats.Shards = e.tr.Shards()
	e.round = s.Rounds
	e.cur = -1
}

// Stats returns a copy of the accumulated ledger.
func (e *roundEngine) Stats() Stats {
	s := e.stats
	s.Phases = append([]PhaseStats(nil), e.stats.Phases...)
	return s
}
