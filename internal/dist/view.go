package dist

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/graph"
)

// view is one process's materialization of the working graph during a
// distributed run. A full view (single-process transports) holds every
// edge; a partition view (network transport) holds only the edges
// incident to the process's shard — its own adjacency plus boundary
// edges.
//
// Layout: edges are stored DENSELY over local ids [0, localCount()),
// with a sorted ids map translating local→global (globalOf) and
// global→local (localOf, bucketed search). The CSR adjacency's EID slots
// carry local ids, so every per-edge array the compute loops allocate
// (masks, scratch, the edge table itself) is O(m_incident) words; the
// global id space survives only at the wire boundary — message Port
// and MsgAdd/MsgDrop payloads carry global ids, and the pure
// seed-derived sampling functions are keyed by global id — which is
// what keeps frames, seeds, and tie-breaks consistent across shards
// and bit-identical to the single-process run. On a full view local
// and global ids coincide and every translation is the identity.
//
// Memory accounting (the bound the regression tests in memory_test.go
// pin, and E13 reports per worker): a view's edge-indexed tables cost
// tableWords() = O(m_incident) words, per-vertex arrays cost O(n)
// words (the spanner's labels and its per-iteration sampled-bit table,
// the round engine's cluster accumulator, one per worker, and the
// transport's post board with its two live-slot count arrays; none
// counts in tableWords()), the decide step's slot scratch costs
// O(max degree) words per worker, and no per-round allocation anywhere
// in spanner.go/sparsify.go exceeds O(n + m_incident) — a worker
// holding shard s of a P-way split pays for its incident edges (own
// share plus boundary), never for the global edge count. The one
// global-sized quantity left is time, not memory: the renumbering walk
// at the end of a sampling round scans the global id space with O(1)
// state plus the gathered bundle-id list (O(bundle size) words,
// transient).
type view struct {
	// n and m are the GLOBAL vertex count and edge-id-space size; local
	// edge ids index edges, global ids live in [0, m).
	n, m int
	// lo and hi delimit the owned vertex range [lo, hi) (the whole
	// range on a full view) — ownership decides which shard contributes
	// a boundary edge to cross-shard collectives.
	lo, hi int
	// edges is the dense local edge table, indexed by local id.
	edges []graph.Edge
	// adj is the CSR adjacency; EID slots carry LOCAL ids.
	adj *graph.Adjacency
	// ids lists the incident global edge ids in increasing order,
	// parallel to edges; nil means the view is full (local == global).
	ids []int32
	// dir is localOf's directory: dir[b] indexes the first id of
	// bucket [b<<shift, (b+1)<<shift). shift is the least that leaves
	// at most len(ids) buckets, under two ids each on average.
	dir   []int32
	shift uint
}

// newFullView wraps a whole graph (single-process transports).
func newFullView(g *graph.Graph) *view {
	return &view{
		n: g.N, m: len(g.Edges),
		lo: 0, hi: g.N,
		edges: g.Edges,
		adj:   graph.NewAdjacency(g),
	}
}

// newPartView builds a partition view over n vertices, m global edge
// ids, and the owned vertex range [lo, hi), from the incident slice
// (ids increasing and in [0, m), edges parallel). The slices are used
// directly, so the view's footprint is the caller's slices plus an
// O(n + m_incident) adjacency — never Θ(m).
func newPartView(n, m, lo, hi int, ids []int32, edges []graph.Edge) *view {
	if m > graph.MaxEdges {
		panic(fmt.Sprintf("dist: %d global edge ids exceed the int32 id space (max %d)", m, graph.MaxEdges))
	}
	if len(ids) != len(edges) {
		panic(fmt.Sprintf("dist: partition view has %d ids but %d edges", len(ids), len(edges)))
	}
	w := &view{
		n: n, m: m,
		lo: lo, hi: hi,
		edges: edges,
		adj:   graph.NewAdjacencyDense(n, edges),
		ids:   ids,
	}
	if w.ids == nil {
		w.ids = []int32{} // a shard with no incident edge is still a partition view
	}
	if len(ids) > 0 {
		w.shift = uint(bits.Len(uint((m - 1) / len(ids))))
		w.dir = make([]int32, (m-1)>>w.shift+1)
		for b := range w.dir {
			k, _ := slices.BinarySearch(ids, int32(b<<w.shift))
			w.dir[b] = int32(k)
		}
	}
	return w
}

// full reports whether every edge is materialized (local ids == global
// ids).
func (w *view) full() bool { return w.ids == nil }

// localCount returns the number of locally materialized edges — the
// length of every per-edge array built over this view.
func (w *view) localCount() int { return len(w.edges) }

// globalOf translates a local edge id to its global id.
func (w *view) globalOf(lid int32) int32 {
	if w.ids == nil {
		return lid
	}
	return w.ids[lid]
}

// localOf translates a global edge id to the local id materializing
// it: a binary search of the id's directory bucket. The id must be
// incident to this view: every caller translates an id that arrived
// over an incident edge (a message Port or an add/drop notice), so
// absence is a partition-protocol violation, a *NetError panic.
func (w *view) localOf(gid int32) int32 {
	if w.ids == nil {
		return gid
	}
	if b := int(uint32(gid) >> w.shift); b < len(w.dir) {
		lo, hi := int(w.dir[b]), len(w.ids)
		if b+1 < len(w.dir) {
			hi = int(w.dir[b+1])
		}
		for n := hi - lo; n > 1; n -= n / 2 { // gid, if present, is in [lo, lo+n)
			if w.ids[lo+n/2] <= gid {
				lo += n / 2
			}
		}
		if lo < hi && w.ids[lo] == gid {
			return int32(lo)
		}
	}
	panic(&NetError{Err: fmt.Errorf("global edge id %d is not incident to this partition view", gid)})
}

// otherEnd returns the endpoint of local edge lid that is not v.
func (w *view) otherEnd(lid, v int32) int32 {
	e := w.edges[lid]
	if e.U == v {
		return e.V
	}
	return e.U
}

// ownsVertex reports whether v lies in the owned range [lo, hi).
func (w *view) ownsVertex(v int32) bool { return int(v) >= w.lo && int(v) < w.hi }

// ownsEdge reports whether this view is the primary owner of local
// edge lid (the owner of its U endpoint) — the shard that contributes
// the edge to cross-shard collectives and result gathers, so each
// boundary edge is contributed exactly once.
func (w *view) ownsEdge(lid int32) bool { return w.ownsVertex(w.edges[lid].U) }

// graph materializes the view as a Graph. Only meaningful on a full
// view, where the dense table is the global edge list.
func (w *view) graph() *graph.Graph { return &graph.Graph{N: w.n, Edges: w.edges} }

// tableWords returns the number of words held by the view's
// edge-indexed tables: the dense edge table (3 words per edge), the
// global-id map and its directory (at most one word per id), and the
// CSR slot arrays (2 words per slot). This is the O(m_incident)
// quantity the memory regression tests pin and the per-worker
// footprint column of E13 reports; per-vertex O(n) arrays
// (CSR offsets, cluster state) are excluded, as the paper's model
// grants every machine its O(n) share.
func (w *view) tableWords() int {
	return 3*len(w.edges) + len(w.ids) + len(w.dir) + 2*len(w.adj.Nbr)
}
