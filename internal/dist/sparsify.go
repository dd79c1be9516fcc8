package dist

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/parutil"
	"repro/internal/rng"
)

// SparsifyJob returns the paper's Algorithm 2 (PARALLELSPARSIFY) as a
// Job — ⌈log₂ρ⌉ iterations, each building a t-bundle of distributed
// Baswana–Sen spanners and keeping every off-bundle edge independently
// with probability 1/4 at weight 4w (Algorithm 1), runnable unchanged
// on every TransportSpec via Run. Every message of every round is
// billed to Result.Stats (Theorem 5).
//
// cfg follows core.ParallelSparsify exactly — validation, iteration
// count, seed splitting, bundle thickness, and keep probability — so
// for an equal cfg the output graph is edge-identical to the
// shared-memory run: the spectral (1±ε) guarantee transfers verbatim
// and only the communication accounting is new. cfg.Tracker models
// CRCW PRAM cost and is ignored here (the ledger replaces it); it does
// not cross the wire.
func SparsifyJob(eps, rho float64, cfg core.Config) Job[*graph.Graph] {
	return Job[*graph.Graph]{impl: sparsifyImpl{eps: eps, rho: rho, cfg: cfg}}
}

// SparsifyDefaults builds the configuration a bare depth/seed pair
// implies — the calibrated defaults with the bundle depth overridden
// and seed 0 normalized to 1, exactly like repro.Options — so CLIs,
// experiments, and tests derive SparsifyJob's cfg from one place.
func SparsifyDefaults(depth int, seed uint64) core.Config {
	if seed == 0 {
		seed = 1
	}
	cfg := core.DefaultConfig(seed)
	cfg.BundleT = depth
	return cfg
}

// sparsifyImpl is the sparsifier job body. Wire parameter block
// (sparsifyParamsLen bytes, little-endian): eps, rho, cfg.BundleConst,
// cfg.KeepProb as float64 bits, then cfg.BundleLogPow, cfg.BundleT,
// cfg.SpannerK as int64, then cfg.Seed — the full configuration
// crosses the wire, so a Theory-constants run is adopted faithfully by
// every worker process.
type sparsifyImpl struct {
	eps, rho float64
	cfg      core.Config
}

const sparsifyParamsLen = 64

func (j sparsifyImpl) name() string { return jobNameSparsify }

func (j sparsifyImpl) params() []byte {
	b := make([]byte, sparsifyParamsLen)
	binary.LittleEndian.PutUint64(b[0:], math.Float64bits(j.eps))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(j.rho))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(j.cfg.BundleConst))
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(j.cfg.KeepProb))
	binary.LittleEndian.PutUint64(b[32:], uint64(int64(j.cfg.BundleLogPow)))
	binary.LittleEndian.PutUint64(b[40:], uint64(int64(j.cfg.BundleT)))
	binary.LittleEndian.PutUint64(b[48:], uint64(int64(j.cfg.SpannerK)))
	binary.LittleEndian.PutUint64(b[56:], j.cfg.Seed)
	return b
}

func (j sparsifyImpl) withParams(b []byte) (jobImpl[*graph.Graph], error) {
	if len(b) != sparsifyParamsLen {
		return nil, fmt.Errorf("dist: sparsify params are %d bytes, want %d", len(b), sparsifyParamsLen)
	}
	return sparsifyImpl{
		eps: math.Float64frombits(binary.LittleEndian.Uint64(b[0:])),
		rho: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		cfg: core.Config{
			BundleConst:  math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
			KeepProb:     math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
			BundleLogPow: int(int64(binary.LittleEndian.Uint64(b[32:]))),
			BundleT:      int(int64(binary.LittleEndian.Uint64(b[40:]))),
			SpannerK:     int(int64(binary.LittleEndian.Uint64(b[48:]))),
			Seed:         binary.LittleEndian.Uint64(b[56:]),
		},
	}, nil
}

func (j sparsifyImpl) runFull(re *roundEngine, g *graph.Graph) (*graph.Graph, int) {
	if j.rho <= 1 {
		// The identity run materializes no working view; the process
		// still holds the edge list itself (3 words per edge).
		return g.Clone(), 3 * len(g.Edges)
	}
	w, peak := sparsifyOn(re, newFullView(g), j.eps, j.rho, j.cfg)
	return w.graph(), peak
}

// sparsifyPart is one process's partial sparsifier result: the final
// global edge-id-space size and the incident final edges this shard
// materializes (IDs are final global edge ids, increasing).
type sparsifyPart struct {
	m     int
	ids   []int32
	edges []graph.Edge
}

func (j sparsifyImpl) runPart(re *roundEngine, part *graph.Partition, ck *ckptState) partOut {
	w := newPartView(part.N, part.M, part.Lo, part.Hi, part.IDs, part.Edges)
	peak := w.tableWords()
	if j.rho > 1 {
		iters := int(math.Ceil(math.Log2(j.rho)))
		epsRound := j.eps / float64(iters)
		start := 0
		if ck != nil && ck.epochs > 0 {
			// Recovery fast-forward: replay the checkpointed epochs
			// locally. The renumbering of epoch i is a pure function of
			// (view_i, gathered bundle ids_i, seed) — the gathered lists
			// are in the checkpoint and the sampling coins are pure seed
			// functions — so the replayed views, and with them every
			// subsequent frame and tally, are bit-identical to the
			// failure-free run. No network round is spent.
			if ck.epochs > iters {
				panic(&NetError{Err: fmt.Errorf("checkpoint holds %d epochs of a %d-iteration sparsify run", ck.epochs, iters)})
			}
			for i := 0; i < ck.epochs; i++ {
				keep, scale := sampleKeep(roundConfigFor(j.cfg, i))
				w = renumberPart(w, ck.lists[i], keep, scale)
				if tw := w.tableWords(); tw > peak {
					peak = tw
				}
			}
			re.restore(ck.stats)
			start = ck.epochs
		}
		for i := start; i < iters; i++ {
			var bundleIDs []int32
			w, bundleIDs = sampleRound(re, w, epsRound, roundConfigFor(j.cfg, i))
			if tw := w.tableWords(); tw > peak {
				peak = tw
			}
			ck.record(i, bundleIDs, re)
		}
	}
	sp := &sparsifyPart{m: w.m}
	sp.ids = make([]int32, w.localCount())
	sp.edges = make([]graph.Edge, w.localCount())
	for lid := range sp.edges {
		sp.ids[lid] = w.globalOf(int32(lid))
		sp.edges[lid] = w.edges[lid]
	}
	return partOut{peak: peak, data: sp}
}

// assemble merges the shards' owned final edges at the coordinator
// into the full output graph (each edge contributed by the shard
// owning its U endpoint, so a boundary edge is merged exactly once);
// workers contribute and get nil back.
func (j sparsifyImpl) assemble(tr *NetTransport, part *graph.Partition, po partOut) (*graph.Graph, error) {
	sp := po.data.(*sparsifyPart)
	var ids []int32
	var edges []graph.Edge
	for k, id := range sp.ids {
		if graph.ShardOfVertex(part.N, part.Shards, sp.edges[k].U) == part.Shard {
			ids = append(ids, id)
			edges = append(edges, sp.edges[k])
		}
	}
	blobs, err := tr.GatherBlobs(graphio.EncodeEdgeRecords(ids, edges))
	if err != nil {
		return nil, err
	}
	if tr.Shard() != 0 {
		return nil, nil
	}
	out := make([]graph.Edge, sp.m)
	seen := make([]bool, sp.m)
	for s, blob := range blobs {
		bids, bedges, err := graphio.DecodeEdgeRecords(blob)
		if err != nil {
			return nil, fmt.Errorf("dist: shard %d result: %w", s, err)
		}
		for k, id := range bids {
			if id < 0 || int(id) >= sp.m || seen[id] {
				return nil, fmt.Errorf("dist: shard %d contributed bad or duplicate edge id %d", s, id)
			}
			out[id] = bedges[k]
			seen[id] = true
		}
	}
	for id, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("dist: no shard contributed final edge %d", id)
		}
	}
	return graph.FromEdges(part.N, out), nil
}

// sparsifyOn runs the iteration schedule and reports the peak
// edge-table footprint across the rounds' working views.
func sparsifyOn(e *roundEngine, w *view, eps, rho float64, cfg core.Config) (*view, int) {
	iters := int(math.Ceil(math.Log2(rho)))
	epsRound := eps / float64(iters)
	peak := w.tableWords()
	for i := 0; i < iters; i++ {
		w, _ = sampleRound(e, w, epsRound, roundConfigFor(cfg, i))
		if tw := w.tableWords(); tw > peak {
			peak = tw
		}
	}
	return w, peak
}

// roundConfigFor derives sampling epoch i's config: the per-iteration
// seed split of core.ParallelSparsify, shared by the live schedule and
// the checkpoint replay so both flip identical coins.
func roundConfigFor(cfg core.Config, i int) core.Config {
	cfg.Seed = cfg.Seed ^ (uint64(i+1) * core.RoundSeedMix)
	return cfg
}

// sampleKeep returns epoch-scoped Algorithm 1 sampling: the keep coin
// (a pure function of the seed and the GLOBAL edge id, so every shard
// — and every replay — flips the same coins) and the weight scale 1/p
// applied to kept off-bundle edges.
func sampleKeep(cfg core.Config) (keep func(gid int) bool, scale float64) {
	p := cfg.SampleKeepProb()
	sampleSeed := cfg.Seed ^ core.SampleSeedMix
	return func(gid int) bool { return rng.SplitAt(sampleSeed, uint64(gid)).Float64() < p }, 1 / p
}

// sampleRound is one distributed Algorithm 1 round on the network held
// by e: a t-bundle of distributed spanners over a shrinking alive mask,
// then the uniform sampling round for off-bundle edges. All working
// masks are indexed by local edge id (O(m_incident) words on a
// partition view); the pure seed-derived sampling coin is keyed by
// GLOBAL edge id, so every shard flips the same coins. On a partition
// view the second return value is the gathered sorted in-bundle global
// id list — the O(bundle)-word epoch state the recovery checkpoint
// records, sufficient (with the pure coins) to replay the epoch's
// renumbering without any network round (see renumberPart).
func sampleRound(e *roundEngine, w *view, eps float64, cfg core.Config) (*view, []int32) {
	if eps <= 0 || eps > 1 {
		panic(fmt.Sprintf("dist: sample round requires eps in (0,1], got %v", eps))
	}
	n := w.n
	mLocal := w.localCount()
	t := cfg.BundleThickness(n, eps)

	// Bundle construction: t sequential Baswana–Sen layers, each a
	// spanner of the edges the previous layers left behind. Layer seeds
	// match internal/bundle so the masks agree with bundle.Compute.
	// Loop control (any progress? any edge still alive?) reduces local
	// booleans across the shards, so every process runs the same number
	// of layers — on a single process the reduction is the identity and
	// the flow matches the pre-partition implementation exactly.
	bundleSeed := cfg.Seed ^ core.BundleSeedMix
	inBundle := e.getBools(mLocal)
	curAlive := e.getBools(mLocal)
	remaining := mLocal
	for i := range curAlive {
		curAlive[i] = true
	}
	anyAlive := e.allOrWord(boolFlag(remaining > 0)) != 0
	for layer := 0; layer < t; layer++ {
		if !anyAlive {
			break // bundle swallowed the graph: identity round
		}
		layerSeed := bundleSeed ^ (uint64(layer+1) * bundle.LayerSeedMix)
		in, ctr, _ := runBaswanaSen(e, w, curAlive, cfg.SpannerK, layerSeed)
		size := 0
		for lid := 0; lid < mLocal; lid++ {
			if in[lid] && curAlive[lid] {
				inBundle[lid] = true
				curAlive[lid] = false
				size++
			}
		}
		// The layer's mask and center labels are consumed; recycle them
		// for the next layer.
		e.putBools(in)
		e.putInt32s(ctr)
		remaining -= size
		flags := e.allOrWord(boolFlag(size > 0) | boolFlag(remaining > 0)<<1)
		if flags&1 == 0 {
			break // only self-loops left alive anywhere
		}
		anyAlive = flags&2 != 0
	}
	e.putBools(curAlive)

	// Sampling round: the lower endpoint of each off-bundle edge flips
	// the coin (a pure function of seed and GLOBAL edge id) and
	// announces the verdict to the other endpoint. One round, 1-word
	// messages, one per off-bundle non-loop edge. The recipient
	// recomputes the coin, so its owner sends the message: it is
	// billed and moves nothing.
	e.BeginPhase("sample")
	keep, scale := sampleKeep(cfg)
	adj := w.adj
	e.ForVertices(func(v int32) {
		lo, hi := adj.Range(v)
		for slot := lo; slot < hi; slot++ {
			eid := adj.EID[slot]
			if inBundle[eid] {
				continue
			}
			u := adj.Nbr[slot]
			if u >= v {
				continue // the lower endpoint decides; v receives
			}
			gid := w.globalOf(eid)
			bit := int32(0)
			if keep(int(gid)) {
				bit = 1
			}
			e.Deliver(v, Message{From: u, Port: gid, Kind: MsgKeep, A: bit})
		}
	})
	e.EndRound()

	if w.full() {
		edges := parutil.CollectShards(mLocal, func(_ int, lo, hi int) []graph.Edge {
			var out []graph.Edge
			for i := lo; i < hi; i++ {
				ge := w.edges[i]
				if inBundle[i] {
					out = append(out, ge)
				} else if keep(i) {
					out = append(out, graph.Edge{U: ge.U, V: ge.V, W: ge.W * scale})
				}
			}
			return out
		})
		e.putBools(inBundle)
		return newFullView(graph.FromEdges(n, edges)), nil
	}

	// Partition renumbering: survival (bundle membership or a kept
	// coin) must be decidable for EVERY global edge id so each process
	// assigns the same new ids. The coin is a pure function of the
	// global id, and bundle membership is gathered as the sorted list
	// of in-bundle global ids, each contributed by its owning shard
	// (the shard of its U endpoint — which materializes it and whose
	// mask agrees with the other endpoint's via the MsgAdd notices).
	// The gathered list is O(bundle size) words — the sparsifier's own
	// output scale — so no Θ(m) mask is ever merged or held; the walk
	// over the id space below costs global TIME once per round but only
	// O(1) words beyond the gather.
	var ownedBundle []int32
	for lid := 0; lid < mLocal; lid++ {
		if inBundle[lid] && w.ownsEdge(int32(lid)) {
			ownedBundle = append(ownedBundle, w.globalOf(int32(lid)))
		}
	}
	e.putBools(inBundle)
	bundleIDs := e.allGatherInt32s(ownedBundle)
	return renumberPart(w, bundleIDs, keep, scale), bundleIDs
}

// renumberPart applies one epoch's survival verdict to a partition
// view: a global edge survives if it is in the gathered bundle id list
// or its keep coin came up, surviving ids are renumbered densely, and
// the locally incident survivors are rebuilt with kept off-bundle
// edges scaled. It is a pure local function of (view, bundleIDs, seed)
// — the live schedule and the checkpoint replay run the identical
// walk, which is what makes recovery bit-identical.
func renumberPart(w *view, bundleIDs []int32, keep func(gid int) bool, scale float64) *view {
	var newIDs []int32
	var newEdges []graph.Edge
	newM := 0
	li, bi := 0, 0
	for i := 0; i < w.m; i++ {
		gid := int32(i)
		lid := li
		incident := li < len(w.ids) && w.ids[li] == gid
		if incident {
			li++
		}
		inB := bi < len(bundleIDs) && bundleIDs[bi] == gid
		if inB {
			bi++
		}
		if !inB && !keep(i) {
			continue
		}
		if incident {
			ge := w.edges[lid]
			if !inB {
				ge.W *= scale
			}
			newIDs = append(newIDs, int32(newM))
			newEdges = append(newEdges, ge)
		}
		newM++
	}
	return newPartView(w.n, newM, w.lo, w.hi, newIDs, newEdges)
}

// boolFlag returns 1 for true, 0 for false.
func boolFlag(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
