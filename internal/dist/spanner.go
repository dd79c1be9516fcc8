package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/rng"
	"repro/internal/spanner"
)

// SpannerOutput is the assembled output of the spanner job.
type SpannerOutput struct {
	// InSpanner marks the selected edges of the input graph (indexed by
	// global edge id). For equal (k, seed) it is identical to
	// spanner.Compute's mask on every TransportSpec: the distributed
	// execution changes how knowledge travels, not what is decided.
	InSpanner []bool
	// G is the spanner subgraph itself — the InSpanner edges in global
	// id order with their original weights.
	G *graph.Graph
	// Center is the final cluster assignment after phase 1 (−1 for
	// vertices that dropped out of the clustering).
	Center []int32
	// K is the level count actually used (k ≤ 0 selects ⌈log₂ n⌉), so
	// the stretch guarantee is 2K−1 in the resistive metric.
	K int
}

// SpannerJob returns the Baswana–Sen (2k−1)-spanner as a Job — the
// paper's Theorem 2 algorithm, runnable unchanged on every
// TransportSpec via Run. k ≤ 0 selects the paper's ⌈log₂ n⌉ levels;
// seed drives all sampling (equal seeds give identical outputs at any
// spec, shard count, and GOMAXPROCS). The communication ledger of the
// run (O(log² n) rounds, O(m log n) messages of O(1) words) is
// returned in Result.Stats.
func SpannerJob(k int, seed uint64) Job[*SpannerOutput] {
	return Job[*SpannerOutput]{impl: spannerImpl{k: k, seed: seed}}
}

// spannerImpl is the spanner job body. Wire parameter block
// (spannerParamsLen bytes, little-endian): [0:8) the level count k as
// int64, [8:16) the seed.
type spannerImpl struct {
	k    int
	seed uint64
}

const spannerParamsLen = 16

func (j spannerImpl) name() string { return jobNameSpanner }

func (j spannerImpl) params() []byte {
	b := make([]byte, spannerParamsLen)
	binary.LittleEndian.PutUint64(b[0:], uint64(int64(j.k)))
	binary.LittleEndian.PutUint64(b[8:], j.seed)
	return b
}

func (j spannerImpl) withParams(b []byte) (jobImpl[*SpannerOutput], error) {
	if len(b) != spannerParamsLen {
		return nil, fmt.Errorf("dist: spanner params are %d bytes, want %d", len(b), spannerParamsLen)
	}
	return spannerImpl{
		k:    int(int64(binary.LittleEndian.Uint64(b[0:]))),
		seed: binary.LittleEndian.Uint64(b[8:]),
	}, nil
}

func (j spannerImpl) runFull(re *roundEngine, g *graph.Graph) (*SpannerOutput, int) {
	w := newFullView(g)
	in, center, kk := runBaswanaSen(re, w, nil, j.k, j.seed)
	return &SpannerOutput{InSpanner: in, G: g.Subgraph(in), Center: center, K: kk}, w.tableWords()
}

// spannerPart is one process's partial spanner result: the membership
// mask of its incident edges (local ids, complete for every incident
// edge — boundary decisions made remotely arrive as MsgAdd notices)
// and the final centers of its owned vertex range.
type spannerPart struct {
	in     []bool
	center []int32
	k      int
}

func (j spannerImpl) runPart(re *roundEngine, part *graph.Partition, ck *ckptState) partOut {
	// The spanner records no mid-run checkpoint state: recovery replays
	// the whole (short) run from the top, still bit-identically. A
	// checkpoint claiming completed epochs for this job cannot be ours.
	if ck != nil && ck.epochs > 0 {
		panic(&NetError{Err: fmt.Errorf("checkpoint holds %d epochs for the checkpoint-free %s job", ck.epochs, jobNameSpanner)})
	}
	w := newPartView(part.N, part.M, part.Lo, part.Hi, part.IDs, part.Edges)
	in, center, kk := runBaswanaSen(re, w, nil, j.k, j.seed)
	owned := append([]int32(nil), center[part.Lo:part.Hi]...)
	return partOut{peak: w.tableWords(), data: &spannerPart{in: in, center: owned, k: kk}}
}

// assemble gathers the shards' partition results at the coordinator:
// each process contributes the in-spanner edges it OWNS (the shard of
// the U endpoint, so every boundary edge is contributed exactly once)
// plus the final centers of its owned vertex range; the coordinator
// rebuilds the full global mask, the spanner subgraph, and the center
// array. Workers contribute and get nil back. Blob layout per shard:
// [0:4) owned in-spanner edge count, then that many
// graphio.EdgeRecordSize records (global id + edge), then 4 bytes per
// owned vertex of final centers.
func (j spannerImpl) assemble(tr *NetTransport, part *graph.Partition, po partOut) (*SpannerOutput, error) {
	sp := po.data.(*spannerPart)
	var ownIDs []int32
	var ownEdges []graph.Edge
	for lid, id := range part.IDs {
		if sp.in[lid] && graph.ShardOfVertex(part.N, part.Shards, part.Edges[lid].U) == part.Shard {
			ownIDs = append(ownIDs, id)
			ownEdges = append(ownEdges, part.Edges[lid])
		}
	}
	recs := graphio.EncodeEdgeRecords(ownIDs, ownEdges)
	owned := part.Hi - part.Lo
	blob := make([]byte, 4+len(recs)+4*owned)
	binary.LittleEndian.PutUint32(blob[0:], uint32(len(ownIDs)))
	copy(blob[4:], recs)
	for k, c := range sp.center {
		binary.LittleEndian.PutUint32(blob[4+len(recs)+4*k:], uint32(c))
	}
	blobs, err := tr.GatherBlobs(blob)
	if err != nil {
		return nil, err
	}
	if tr.Shard() != 0 {
		return nil, nil
	}
	// The assembled mask is Θ(m) bits by contract, but the edge store
	// is kept at O(spanner size): the contributions are (id, edge)
	// pairs, each shard's list sorted by global id, so a sort of the
	// concatenation rebuilds global order without a Θ(m)-entry table.
	in := make([]bool, part.M)
	center := make([]int32, part.N)
	var allIDs []int32
	var allEdges []graph.Edge
	bounds := graph.ShardBounds(part.N, part.Shards)
	for s, b := range blobs {
		want := bounds[s+1] - bounds[s]
		if len(b) < 4 {
			return nil, fmt.Errorf("dist: shard %d spanner blob is %d bytes", s, len(b))
		}
		cnt := int(binary.LittleEndian.Uint32(b[0:]))
		if cnt < 0 || len(b) != 4+cnt*graphio.EdgeRecordSize+4*want {
			return nil, fmt.Errorf("dist: shard %d spanner blob: %d records, %d bytes, %d owned vertices", s, cnt, len(b), want)
		}
		bids, bedges, err := graphio.DecodeEdgeRecords(b[4 : 4+cnt*graphio.EdgeRecordSize])
		if err != nil {
			return nil, fmt.Errorf("dist: shard %d spanner result: %w", s, err)
		}
		for _, id := range bids {
			if id < 0 || int(id) >= part.M || in[id] {
				return nil, fmt.Errorf("dist: shard %d contributed bad or duplicate spanner edge %d", s, id)
			}
			in[id] = true
		}
		allIDs = append(allIDs, bids...)
		allEdges = append(allEdges, bedges...)
		for k := 0; k < want; k++ {
			center[bounds[s]+k] = int32(binary.LittleEndian.Uint32(b[4+cnt*graphio.EdgeRecordSize+4*k:]))
		}
	}
	order := make([]int, len(allIDs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return allIDs[order[a]] < allIDs[order[b]] })
	sub := &graph.Graph{N: part.N, Edges: make([]graph.Edge, 0, len(order))}
	for _, i := range order {
		sub.Edges = append(sub.Edges, allEdges[i])
	}
	return &SpannerOutput{InSpanner: in, G: sub, Center: center, K: sp.k}, nil
}

// notice is a spanner-add or edge-drop decision queued for delivery to
// the other endpoint at the end of the decision round. eid is the
// GLOBAL edge id — notices cross the wire.
type notice struct {
	v   int32 // the deciding vertex (sender)
	eid int32
}

// runBaswanaSen executes the clustering over the alive edges of w,
// billing every round to e. alive may be nil (all edges); masks are
// indexed by LOCAL edge id and sized w.localCount(). The returned mask
// is local too: parallel to the view's edges, complete for every
// locally materialized edge (every decision about an incident edge is
// either made locally or arrives as a MsgAdd/MsgDrop notice). On a
// full view local ids equal global ids and the mask spans the graph.
//
// Partition discipline: every per-vertex array (center, parent, depth)
// is read only for vertices the local workers own, remote cluster
// state travels in MsgCenter/MsgNewCenter payloads, and the only
// shared-memory shortcut left is for values that are pure functions of
// the seed (a cluster's sampled bit), which any process re-derives
// locally. Message ports and notice payloads carry GLOBAL edge ids —
// the two processes sharing a boundary edge materialize it at
// different local ids — and are translated back through the view's id
// map on receipt. That is what lets the network transport run this
// function unchanged with each process holding only its shard, at
// O(n + m_incident) words per process.
func runBaswanaSen(e *roundEngine, w *view, alive []bool, k int, seed uint64) ([]bool, []int32, int) {
	adj := w.adj
	n := w.n
	m := w.localCount()
	if k <= 0 {
		k = spanner.DefaultK(n)
	}
	// The per-vertex label arrays and the edge masks come from the
	// engine's scratch freelists: a sparsify run re-enters this function
	// once per bundle layer, and recycling the arrays removes its
	// dominant allocator traffic. inSpanner and center are returned —
	// callers that discard them (sampleRound) put them back; callers
	// that retain them (the spanner job) simply never do.
	inSpanner := e.getBools(m)
	center := e.getInt32s(n)
	parent := e.getInt32s(n) // tree edge toward the center (−1 at the center)
	depth := e.getInt32s(n)  // hop distance to the center within the cluster
	for i := range center {
		center[i] = int32(i)
		parent[i] = -1
		depth[i] = 0
	}
	if k == 1 {
		for lid := range inSpanner {
			if alive == nil || alive[lid] {
				inSpanner[lid] = true
			}
		}
		e.putInt32s(parent)
		e.putInt32s(depth)
		return inSpanner, center, k
	}
	dead := e.getBools(m)
	for lid := range dead {
		if alive != nil && !alive[lid] {
			dead[lid] = true
		}
		if w.edges[lid].U == w.edges[lid].V {
			// Self-loops carry no spectral information.
			dead[lid] = true
		}
	}
	// The decision step's next-iteration labels, double-buffered: every
	// owned index is rewritten each iteration before the swap, and
	// unowned indices are never read (the partition discipline above),
	// so the buffers ping-pong without clearing.
	newCenter := e.getInt32s(n)
	newParent := e.getInt32s(n)
	newDepth := e.getInt32s(n)
	p := math.Pow(float64(n), -1.0/float64(k))

	for iter := 1; iter <= k-1; iter++ {
		// --- Step 1: centers sample themselves; the verdict is waved
		// down the cluster trees. A cluster formed by iteration i has
		// radius ≤ i−1, so the wave costs ≤ i−1 rounds — summed over
		// the iterations this is the Θ(log² n) round bill of Theorem 2.
		// The sampled bit is a pure function of (seed, iter, cluster),
		// so any process derives any cluster's bit locally; the wave is
		// billed all the same because a real deployment (where only the
		// center flips the coin) must pay it.
		e.BeginPhase("spanner/broadcast")
		iterSeed := seed ^ (uint64(iter) * spanner.IterSeedMix)
		sampledBit := func(c int32) bool {
			return rng.SplitAt(iterSeed, uint64(c)).Float64() < p
		}
		depthMaxes := collectVertices(e, func(_ int, lo, hi int) []int32 {
			mx := int32(0)
			for v := lo; v < hi; v++ {
				if center[v] >= 0 && depth[v] > mx {
					mx = depth[v]
				}
			}
			return []int32{mx}
		})
		maxDepth := int32(0)
		for _, mx := range depthMaxes {
			if mx > maxDepth {
				maxDepth = mx
			}
		}
		maxDepth = e.allMaxInt32(maxDepth)
		for r := int32(1); r <= maxDepth; r++ {
			e.ForVertices(func(v int32) {
				if center[v] < 0 || depth[v] != r {
					return
				}
				bit := int32(0)
				if sampledBit(center[v]) {
					bit = 1
				}
				e.Deliver(v, Message{From: parent[v], Kind: MsgSampled, A: bit})
			})
			e.EndRound()
		}
		// After the wave every clustered vertex knows its own cluster's
		// bit; calling sampledBit(center[v]) below reads exactly the
		// mailbox content just simulated.

		// --- Step 2: neighbor exchange — every clustered vertex
		// announces (cluster id, depth, sampled bit) over each alive
		// incident edge. One round, 3-word messages. Sender-iterated:
		// the announcement carries the sender's own state, so its owner
		// stages it — on the network transport this is traffic that
		// genuinely crosses the wire for boundary edges. The Port is the
		// GLOBAL edge id, so both endpoints name the edge identically.
		e.BeginPhase("spanner/exchange")
		e.ForVertices(func(u int32) {
			cu := center[u]
			if cu < 0 {
				return // unclustered vertices have nothing to announce
			}
			bit := int32(0)
			if sampledBit(cu) {
				bit = 1
			}
			du := depth[u]
			lo, hi := adj.Range(u)
			for slot := lo; slot < hi; slot++ {
				eid := adj.EID[slot]
				if dead[eid] {
					continue
				}
				e.Deliver(adj.Nbr[slot], Message{From: u, Port: w.globalOf(eid), Kind: MsgCenter, A: cu, B: du, C: bit})
			}
		})
		e.EndRound()

		// --- Step 3: every vertex of an unsampled cluster decides from
		// its mailbox alone, then notifies the other endpoint of each
		// edge it added or discarded. The decision rule is verbatim
		// Baswana–Sen cases (a)/(b), matching internal/spanner; all
		// comparisons and tie-breaks use global edge ids, so two shards
		// rank a boundary edge identically.
		e.BeginPhase("spanner/decide")
		type vertexOut struct {
			adds  []notice
			kills []notice
		}
		outs := collectVertices(e, func(_ int, lo, hi int) []vertexOut {
			var shardOuts []vertexOut
			groups := make(map[int32]spanner.BestEdge)
			removeCluster := make(map[int32]bool, 4)
			for vi := lo; vi < hi; vi++ {
				v := int32(vi)
				c := center[v]
				newParent[v], newDepth[v] = parent[v], depth[v]
				if c < 0 {
					newCenter[v] = -1
					newParent[v], newDepth[v] = -1, 0
					continue
				}
				if sampledBit(c) {
					// Vertices of sampled clusters keep everything.
					newCenter[v] = c
					continue
				}
				for key := range groups {
					delete(groups, key)
				}
				inbox := e.Mailbox(v)
				for _, msg := range inbox {
					if msg.Kind != MsgCenter || msg.A == c {
						continue
					}
					spanner.UpdateBest(groups, msg.A, msg.Port, w.edges[w.localOf(msg.Port)].Resistance())
				}
				var out vertexOut
				// The lightest edge into a *sampled* adjacent cluster.
				best := spanner.BestEdge{Eid: -1}
				var bestCluster int32
				for _, msg := range inbox {
					if msg.Kind != MsgCenter || msg.A == c {
						continue
					}
					if msg.C == 0 {
						continue // neighbor cluster not sampled
					}
					be := groups[msg.A]
					if best.Eid < 0 || be.Len < best.Len || (be.Len == best.Len && be.Eid < best.Eid) {
						best = be
						bestCluster = msg.A
					}
				}
				if best.Eid < 0 {
					// Case (a): no sampled neighbor cluster. Certify the
					// lightest edge to every adjacent cluster; v drops out
					// and discards all its alive edges.
					newCenter[v] = -1
					newParent[v], newDepth[v] = -1, 0
					for _, be := range groups {
						out.adds = append(out.adds, notice{v, be.Eid})
					}
					lo2, hi2 := adj.Range(v)
					for slot := lo2; slot < hi2; slot++ {
						eid := adj.EID[slot]
						if !dead[eid] {
							out.kills = append(out.kills, notice{v, w.globalOf(eid)})
						}
					}
				} else {
					// Case (b): join the sampled cluster reached by the
					// lightest such edge; certify lighter adjacent
					// clusters; discard edges into all clusters handled.
					newCenter[v] = bestCluster
					out.adds = append(out.adds, notice{v, best.Eid})
					for key := range removeCluster {
						delete(removeCluster, key)
					}
					removeCluster[bestCluster] = true
					for cu, be := range groups {
						if cu == bestCluster {
							continue
						}
						if be.Len < best.Len || (be.Len == best.Len && be.Eid < best.Eid) {
							out.adds = append(out.adds, notice{v, be.Eid})
							removeCluster[cu] = true
						}
					}
					for _, msg := range inbox {
						if msg.Kind != MsgCenter {
							continue
						}
						if removeCluster[msg.A] {
							out.kills = append(out.kills, notice{v, msg.Port})
						}
					}
					// The tree edge toward the new center is the edge
					// just joined over; depth grows by one hop.
					for _, msg := range inbox {
						if msg.Kind == MsgCenter && msg.Port == best.Eid {
							newParent[v] = msg.From
							newDepth[v] = msg.B + 1
							break
						}
					}
				}
				if len(out.adds) > 0 || len(out.kills) > 0 {
					shardOuts = append(shardOuts, out)
				}
			}
			return shardOuts
		})
		// Apply the local decisions, then deliver the add/drop
		// notifications (one round; delivery order is shard order, which
		// is deterministic). On a partition view `outs` holds only this
		// process's decisions — the rest arrive as notices below.
		for _, out := range outs {
			for _, a := range out.adds {
				inSpanner[w.localOf(a.eid)] = true
			}
			for _, kn := range out.kills {
				dead[w.localOf(kn.eid)] = true
			}
		}
		for _, out := range outs {
			for _, a := range out.adds {
				if o := w.otherEnd(w.localOf(a.eid), a.v); o != a.v {
					e.Deliver(o, Message{From: a.v, Port: a.eid, Kind: MsgAdd, A: a.eid})
				}
			}
			for _, kn := range out.kills {
				if o := w.otherEnd(w.localOf(kn.eid), kn.v); o != kn.v {
					e.Deliver(o, Message{From: kn.v, Port: kn.eid, Kind: MsgDrop, A: kn.eid})
				}
			}
		}
		e.EndRound()
		center, newCenter = newCenter, center
		parent, newParent = newParent, parent
		depth, newDepth = newDepth, depth
		applyNotices(e, w, inSpanner, dead)

		// --- Step 4: exchange the new centers over surviving edges and
		// discard intra-cluster edges (both endpoints reach the same
		// verdict from symmetric knowledge). One round, 1-word messages.
		e.BeginPhase("spanner/update")
		e.ForVertices(func(u int32) {
			cu := center[u]
			if cu < 0 {
				return
			}
			lo, hi := adj.Range(u)
			for slot := lo; slot < hi; slot++ {
				eid := adj.EID[slot]
				if dead[eid] {
					continue
				}
				e.Deliver(adj.Nbr[slot], Message{From: u, Port: w.globalOf(eid), Kind: MsgNewCenter, A: cu})
			}
		})
		e.EndRound()
		// An edge is intra-cluster exactly when the announced center
		// equals the receiver's own; both endpoints reach the verdict
		// independently, so a boundary edge dies on both sides without
		// further traffic.
		kills := collectVertices(e, func(_ int, lo, hi int) []int32 {
			var shardKills []int32
			for vi := lo; vi < hi; vi++ {
				v := int32(vi)
				c := center[v]
				if c < 0 {
					continue
				}
				for _, msg := range e.Mailbox(v) {
					if msg.Kind == MsgNewCenter && msg.A == c {
						shardKills = append(shardKills, msg.Port)
					}
				}
			}
			return shardKills
		})
		for _, gid := range kills {
			dead[w.localOf(gid)] = true
		}
	}

	// --- Phase 2: vertex–cluster joins. One exchange round announcing
	// final centers, one local selection of the lightest edge per
	// adjacent surviving cluster, one notification round.
	e.BeginPhase("spanner/join")
	e.ForVertices(func(u int32) {
		cu := center[u]
		if cu < 0 {
			return
		}
		lo, hi := adj.Range(u)
		for slot := lo; slot < hi; slot++ {
			eid := adj.EID[slot]
			if dead[eid] {
				continue
			}
			e.Deliver(adj.Nbr[slot], Message{From: u, Port: w.globalOf(eid), Kind: MsgNewCenter, A: cu})
		}
	})
	e.EndRound()
	adds := collectVertices(e, func(_ int, lo, hi int) []notice {
		var shardAdds []notice
		groups := make(map[int32]spanner.BestEdge)
		for vi := lo; vi < hi; vi++ {
			v := int32(vi)
			for key := range groups {
				delete(groups, key)
			}
			for _, msg := range e.Mailbox(v) {
				if msg.Kind != MsgNewCenter {
					continue
				}
				spanner.UpdateBest(groups, msg.A, msg.Port, w.edges[w.localOf(msg.Port)].Resistance())
			}
			for _, be := range groups {
				shardAdds = append(shardAdds, notice{v, be.Eid})
			}
		}
		return shardAdds
	})
	for _, a := range adds {
		inSpanner[w.localOf(a.eid)] = true
	}
	for _, a := range adds {
		if o := w.otherEnd(w.localOf(a.eid), a.v); o != a.v {
			e.Deliver(o, Message{From: a.v, Port: a.eid, Kind: MsgAdd, A: a.eid})
		}
	}
	e.EndRound()
	applyNotices(e, w, inSpanner, dead)
	e.putBools(dead)
	e.putInt32s(parent)
	e.putInt32s(depth)
	e.putInt32s(newCenter)
	e.putInt32s(newParent)
	e.putInt32s(newDepth)
	return inSpanner, center, k
}

// applyNotices folds the MsgAdd/MsgDrop notices delivered by the last
// barrier into the local edge masks, translating the notices' global
// edge ids through the view. On a single-process view this re-applies
// what the decision loop already wrote (idempotent); on a partition
// view it is how the other endpoint of a boundary edge learns a remote
// decision. Notices are collected per worker and applied sequentially
// so that two endpoints of one edge never write the same mask slot
// concurrently.
func applyNotices(e *roundEngine, w *view, inSpanner, dead []bool) {
	type appliedNote struct {
		eid int32
		add bool
	}
	notes := collectVertices(e, func(_ int, lo, hi int) []appliedNote {
		var shardNotes []appliedNote
		for vi := lo; vi < hi; vi++ {
			for _, msg := range e.Mailbox(int32(vi)) {
				switch msg.Kind {
				case MsgAdd:
					shardNotes = append(shardNotes, appliedNote{msg.A, true})
				case MsgDrop:
					shardNotes = append(shardNotes, appliedNote{msg.A, false})
				}
			}
		}
		return shardNotes
	})
	for _, nt := range notes {
		if nt.add {
			inSpanner[w.localOf(nt.eid)] = true
		} else {
			dead[w.localOf(nt.eid)] = true
		}
	}
}
