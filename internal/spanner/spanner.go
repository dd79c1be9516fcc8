// Package spanner implements the Baswana–Sen randomized (2k−1)-spanner
// algorithm [Baswana & Sen, Random Struct. Algorithms 2007] in the
// snapshot-parallel form that the paper's Theorem 1 (CRCW PRAM) and
// Theorem 2 (synchronous distributed) both rely on: in each of k−1
// clustering iterations every vertex makes its decision simultaneously
// against the cluster assignment at the start of the iteration.
//
// Lengths are resistive (ℓ_e = 1/w_e), so with k = ⌈log₂ n⌉ the output
// satisfies the paper's spanner definition st_H(e) ≤ 2 log n for every
// edge e, with expected size O(k·n^(1+1/k)) = O(n log n).
//
// The algorithm works on a subset of the edges of a host graph selected
// by an "alive" mask, which is what lets bundle construction peel
// spanners off G − ΣH_j without copying the graph.
//
// Every decision groups one vertex's candidate edges by adjacent
// cluster and keeps the lightest per cluster. Clusters is that
// grouping, dense over cluster ids and reset in O(degree), one per
// worker, in this package and in internal/dist's message-passing
// implementation alike, so the two rank candidates identically.
package spanner

import (
	"math"

	"repro/internal/graph"
	"repro/internal/parutil"
	"repro/internal/pram"
	"repro/internal/rng"
)

// Options configures a spanner computation.
type Options struct {
	// K is the number of levels; the result is a (2K−1)-spanner in the
	// resistive metric. K ≤ 0 selects ⌈log₂ n⌉ (the paper's log n-spanner).
	K int
	// Seed drives all sampling decisions; equal seeds give identical
	// outputs at any GOMAXPROCS.
	Seed uint64
	// Tracker, when non-nil, accumulates modeled CRCW work/depth.
	Tracker *pram.Tracker
}

// Result is the output of a spanner computation.
type Result struct {
	// InSpanner marks the selected edges (indices into the host graph's
	// edge list). It is always a subset of the alive mask.
	InSpanner []bool
	// Center is the final cluster assignment after phase 1 (−1 for
	// vertices that became unclustered); exported for the distributed
	// simulation and for tests of the clustering invariants.
	Center []int32
	// Iterations is the number of clustering iterations performed (k−1).
	Iterations int
}

// IterSeedMix derives each clustering iteration's sampling stream from
// the spanner seed. Exported for the distributed simulation
// (internal/dist), which must flip identical center-sampling coins to
// stay bit-identical with Compute.
const IterSeedMix = 0x9e3779b97f4a7c15

// DefaultK returns the paper's choice ⌈log₂ n⌉, at least 2.
func DefaultK(n int) int {
	if n < 4 {
		return 2
	}
	k := int(math.Ceil(math.Log2(float64(n))))
	if k < 2 {
		k = 2
	}
	return k
}

// Compute runs Baswana–Sen over the alive edges of g. adj must be the
// adjacency of g. alive may be nil, meaning all edges. The returned
// mask has length len(g.Edges).
func Compute(g *graph.Graph, adj *graph.Adjacency, alive []bool, opt Options) *Result {
	n := g.N
	m := len(g.Edges)
	k := opt.K
	if k <= 0 {
		k = DefaultK(n)
	}
	inSpanner := make([]bool, m)
	center := make([]int32, n)
	for i := range center {
		center[i] = int32(i)
	}
	if k == 1 {
		// A 1-spanner is the graph itself.
		for i := range inSpanner {
			if alive == nil || alive[i] {
				inSpanner[i] = true
			}
		}
		return &Result{InSpanner: inSpanner, Center: center}
	}
	// dead[i]: edge i no longer in E'. Initialized from the alive mask.
	dead := make([]bool, m)
	for i := range dead {
		if alive != nil && !alive[i] {
			dead[i] = true
		}
		if g.Edges[i].U == g.Edges[i].V {
			dead[i] = true // self-loops carry no spectral information
		}
	}
	p := math.Pow(float64(n), -1.0/float64(k))
	st := &state{
		g: g, adj: adj, dead: dead, inSpanner: inSpanner,
		center: center, seed: opt.Seed, sampleProb: p,
		clusters: make([]*Clusters, parutil.Workers(n)),
	}
	for i := range st.clusters {
		st.clusters[i] = NewClusters(n)
	}
	aliveCount := int64(0)
	for _, d := range dead {
		if !d {
			aliveCount++
		}
	}
	for iter := 1; iter <= k-1; iter++ {
		st.clusterIteration(iter)
		// Modeled cost: a full scan of the surviving edges with O(1)
		// CRCW depth per iteration (concurrent min via combining).
		opt.Tracker.ParFor(2*aliveCount, 1)
	}
	st.vertexClusterJoin()
	opt.Tracker.ParFor(2*aliveCount, 1)
	return &Result{InSpanner: inSpanner, Center: st.center, Iterations: k - 1}
}

// state carries the per-computation arrays so that the iteration
// methods stay readable.
type state struct {
	g          *graph.Graph
	adj        *graph.Adjacency
	dead       []bool  // mutated only between iterations
	inSpanner  []bool  // mutated only between iterations
	center     []int32 // cluster assignment at the start of the iteration
	seed       uint64
	sampleProb float64
	clusters   []*Clusters // one per parutil worker, reused every iteration
}

// BestEdge is the lightest (in resistive length) alive edge from a
// vertex to one adjacent cluster; ties break by edge id, so the result
// is independent of scan order. Clusters, the one grouping primitive
// of both this package and the distributed implementation
// (internal/dist), keeps one BestEdge per adjacent cluster, so the two
// apply the identical total order and stay bit-compatible.
type BestEdge struct {
	Eid int32
	Len float64
}

// less reports whether b precedes o in the (resistive length, edge id)
// order: the one comparison every grouping and selection step uses.
func (b BestEdge) less(o BestEdge) bool {
	return b.Len < o.Len || (b.Len == o.Len && b.Eid < o.Eid)
}

// ClusterEdge is one adjacent cluster's entry in a Clusters
// accumulator.
type ClusterEdge struct {
	C      int32    // the cluster id
	Best   BestEdge // the lightest candidate edge into C folded so far
	Remove bool     // set by Join: the vertex discards its edges into C
}

// Clusters groups one vertex's candidate edges by adjacent cluster,
// keeping the lightest per cluster. Entries sit in Touched in the order
// their clusters were first folded; callers iterate Touched directly.
// pos is dense over the n cluster ids, so a fold is an array read and
// Reset clears only the touched slots: O(degree) per vertex, never
// O(n). One accumulator serves one worker, vertex after vertex.
type Clusters struct {
	pos     []int32 // pos[c] is 1 + c's index in Touched; 0 is absent
	Touched []ClusterEdge
}

// NewClusters returns an empty accumulator over cluster ids [0, n).
func NewClusters(n int) *Clusters { return &Clusters{pos: make([]int32, n)} }

// Fold records candidate edge eid of length l into cluster c, keeping
// the lesser of it and c's current best.
func (a *Clusters) Fold(c, eid int32, l float64) {
	be := BestEdge{Eid: eid, Len: l}
	if i := a.pos[c]; i > 0 {
		if be.less(a.Touched[i-1].Best) {
			a.Touched[i-1].Best = be
		}
		return
	}
	a.Touched = append(a.Touched, ClusterEdge{C: c, Best: be})
	a.pos[c] = int32(len(a.Touched))
}

// Removed reports whether cluster c was folded and marked Remove since
// the last Reset.
func (a *Clusters) Removed(c int32) bool {
	i := a.pos[c]
	return i > 0 && a.Touched[i-1].Remove
}

// Reset empties the accumulator, clearing only the touched slots.
func (a *Clusters) Reset() {
	for _, ce := range a.Touched {
		a.pos[ce.C] = 0
	}
	a.Touched = a.Touched[:0]
}

// Lightest returns the index in Touched of the least entry whose
// cluster keep accepts, or −1 when none does.
func (a *Clusters) Lightest(keep func(c int32) bool) int {
	bi := -1
	for i, ce := range a.Touched {
		if keep(ce.C) && (bi < 0 || ce.Best.less(a.Touched[bi].Best)) {
			bi = i
		}
	}
	return bi
}

// Join is case (b) of a Baswana–Sen decision: the vertex joins the
// cluster of entry bi, so that cluster and every cluster whose best
// edge is lighter than bi's are marked Remove. The marked entries' best
// edges are the ones the vertex adds to the spanner.
func (a *Clusters) Join(bi int) {
	best := a.Touched[bi].Best
	for i := range a.Touched {
		if ce := &a.Touched[i]; i == bi || ce.Best.less(best) {
			ce.Remove = true
		}
	}
}

// clusterIteration performs one Baswana–Sen phase-1 iteration.
func (s *state) clusterIteration(iter int) {
	n := s.g.N
	// Step 1: sample cluster centers with probability n^{-1/k}. The
	// decision is a pure function of (seed, iteration, center id).
	sampled := make([]bool, n)
	parutil.For(n, func(v int) {
		r := rng.SplitAt(s.seed^(uint64(iter)*IterSeedMix), uint64(v))
		sampled[v] = r.Float64() < s.sampleProb
	})

	newCenter := make([]int32, n)
	// One flat decision list per shard: a pair of slices per vertex
	// would be most of the iteration's allocation.
	type decisions struct {
		spannerAdd []int32
		kill       []int32
	}
	outs := parutil.CollectShards(n, func(shard int, lo, hi int) []decisions {
		var out decisions
		acc := s.clusters[shard]
		for vi := lo; vi < hi; vi++ {
			v := int32(vi)
			c := s.center[v]
			if c < 0 {
				newCenter[v] = -1
				continue
			}
			if sampled[c] {
				// Vertices of sampled clusters keep everything.
				newCenter[v] = c
				continue
			}
			// Group v's alive inter-cluster edges by neighbor cluster.
			acc.Reset()
			loS, hiS := s.adj.Range(v)
			for slot := loS; slot < hiS; slot++ {
				eid := s.adj.EID[slot]
				if s.dead[eid] {
					continue
				}
				u := s.adj.Nbr[slot]
				cu := s.center[u]
				if cu < 0 || cu == c {
					// Edges to unclustered vertices cannot exist by the
					// E' invariant; intra-cluster edges were removed at
					// the end of the previous iteration. Skip defensively.
					continue
				}
				acc.Fold(cu, eid, s.g.Edges[eid].Resistance())
			}
			// Find the lightest edge into a *sampled* adjacent cluster.
			bi := acc.Lightest(func(cu int32) bool { return sampled[cu] })
			if bi < 0 {
				// Case (a): no sampled neighbor cluster. Add the lightest
				// edge to every adjacent cluster; v drops out of the
				// clustering and discards all its alive edges.
				newCenter[v] = -1
				for _, ce := range acc.Touched {
					out.spannerAdd = append(out.spannerAdd, ce.Best.Eid)
				}
				for slot := loS; slot < hiS; slot++ {
					eid := s.adj.EID[slot]
					if !s.dead[eid] {
						out.kill = append(out.kill, eid)
					}
				}
			} else {
				// Case (b): join the sampled cluster reached by the
				// lightest such edge; certify lighter adjacent clusters.
				newCenter[v] = acc.Touched[bi].C
				acc.Join(bi)
				for _, ce := range acc.Touched {
					if ce.Remove {
						out.spannerAdd = append(out.spannerAdd, ce.Best.Eid)
					}
				}
				for slot := loS; slot < hiS; slot++ {
					eid := s.adj.EID[slot]
					if s.dead[eid] {
						continue
					}
					if cu := s.center[s.adj.Nbr[slot]]; cu >= 0 && acc.Removed(cu) {
						out.kill = append(out.kill, eid)
					}
				}
			}
		}
		return []decisions{out}
	})
	// Apply the simultaneous decisions (idempotent set operations, so
	// application order is irrelevant).
	for _, out := range outs {
		for _, eid := range out.spannerAdd {
			s.inSpanner[eid] = true
		}
		for _, eid := range out.kill {
			s.dead[eid] = true
		}
	}
	s.center = newCenter
	// Step 4: discard intra-cluster edges under the new assignment.
	parutil.For(len(s.g.Edges), func(i int) {
		if s.dead[i] {
			return
		}
		e := s.g.Edges[i]
		cu, cv := s.center[e.U], s.center[e.V]
		if cu >= 0 && cu == cv {
			s.dead[i] = true
		}
	})
}

// vertexClusterJoin is Baswana–Sen phase 2: every vertex adds the
// lightest alive edge to each adjacent surviving cluster, after which
// E' is empty.
func (s *state) vertexClusterJoin() {
	n := s.g.N
	adds := parutil.CollectShards(n, func(shard int, lo, hi int) []int32 {
		var shardAdds []int32
		acc := s.clusters[shard]
		for vi := lo; vi < hi; vi++ {
			v := int32(vi)
			acc.Reset()
			loS, hiS := s.adj.Range(v)
			for slot := loS; slot < hiS; slot++ {
				eid := s.adj.EID[slot]
				if s.dead[eid] {
					continue
				}
				u := s.adj.Nbr[slot]
				cu := s.center[u]
				if cu < 0 {
					continue
				}
				acc.Fold(cu, eid, s.g.Edges[eid].Resistance())
			}
			for _, ce := range acc.Touched {
				shardAdds = append(shardAdds, ce.Best.Eid)
			}
		}
		return shardAdds
	})
	for _, eid := range adds {
		s.inSpanner[eid] = true
	}
	for i := range s.dead {
		s.dead[i] = true
	}
}
