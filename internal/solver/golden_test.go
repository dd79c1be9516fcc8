package solver

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/spanner"
)

// The pins below fingerprint seeded outputs of the shared-memory
// pipeline with FNV-64a, so a change to the spanner's grouping, the
// edge canonicalization or the two-step build that moves a single bit
// fails here, independently of the cross-transport equivalence matrix
// (which compares two implementations that could move together).
// Level.Sigma is deliberately not pinned: vec.Dot sums one partial per
// GOMAXPROCS shard, so its last bits differ between hosts.

// fingerprint folds ints and float bits into one FNV-64a hash.
type fingerprint struct{ b []byte }

func (f *fingerprint) i32(v int32) {
	f.b = binary.LittleEndian.AppendUint32(f.b, uint32(v))
}

func (f *fingerprint) edges(es []graph.Edge) {
	f.i32(int32(len(es)))
	for _, e := range es {
		f.i32(e.U)
		f.i32(e.V)
		f.b = binary.LittleEndian.AppendUint64(f.b, math.Float64bits(e.W))
	}
}

func (f *fingerprint) sum() uint64 {
	h := fnv.New64a()
	h.Write(f.b)
	return h.Sum64()
}

func edgesFingerprint(es []graph.Edge) uint64 {
	var f fingerprint
	f.edges(es)
	return f.sum()
}

func weightedGnp(n int, p float64, seed uint64) *graph.Graph {
	return gen.WithRandomWeights(gen.Gnp(n, p, seed), 0.5, 8, seed+1)
}

// TestGoldenSpannerCompute also runs a graph past parutil.MinGrain
// vertices, so on a multi-core host several workers, each with its own
// cluster accumulator, decide at once (run it under -race).
func TestGoldenSpannerCompute(t *testing.T) {
	for _, tc := range []struct {
		g    *graph.Graph
		want uint64
	}{
		{weightedGnp(700, 0.08, 41), 0x336ca5dfca1fd9c4},
		{weightedGnp(2500, 0.004, 43), 0x7ddf49f294ac6e60},
	} {
		adj := graph.NewAdjacency(tc.g)
		var f fingerprint
		for _, k := range []int{0, 2, 3} {
			res := spanner.Compute(tc.g, adj, nil, spanner.Options{K: k, Seed: 47})
			for eid, in := range res.InSpanner {
				if in {
					f.i32(int32(eid))
				}
			}
			f.i32(-1)
			for _, c := range res.Center {
				f.i32(c)
			}
		}
		if got := f.sum(); got != tc.want {
			t.Errorf("spanner.Compute on %v: fingerprint %#x, want %#x", tc.g, got, tc.want)
		}
	}
}

func TestGoldenParallelSparsify(t *testing.T) {
	g := weightedGnp(900, 0.1, 47)
	cfg := core.DefaultConfig(41)
	cfg.BundleT = 2
	h, _, err := core.ParallelSparsify(g, 0.5, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := edgesFingerprint(h.Edges), uint64(0x351480adfa42a377); got != want {
		t.Errorf("core.ParallelSparsify fingerprint %#x (%d edges), want %#x", got, len(h.Edges), want)
	}
}

func TestGoldenBuildChainLevels(t *testing.T) {
	chain, err := BuildChain(gen.Grid2D(30, 30), ChainOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{
		0x34f7729766695666, 0x1ad036e5ef38aaff, 0xcd65db4a3ca99116,
		0x70f4e76082560fb9, 0x64c8821f902d9f69, 0x428291861a637c52,
		0x196aa7fd1c5ff30e, 0x4937251ee56b25a0, 0xcf5155908feeee20,
	}
	got := make([]uint64, len(chain.Levels))
	for i, lvl := range chain.Levels {
		got[i] = edgesFingerprint(lvl.G.Edges)
	}
	if len(got) != len(want) {
		t.Fatalf("chain has %d levels %#x, want %d %#x", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("level %d (%d edges) fingerprint %#x, want %#x", i, len(chain.Levels[i].G.Edges), got[i], want[i])
		}
	}
}

func TestGoldenCanonical(t *testing.T) {
	const n = 300
	r := rng.New(17)
	edges := make([]graph.Edge, 20000)
	for i := range edges {
		edges[i] = graph.Edge{U: int32(r.Intn(n)), V: int32(r.Intn(n)), W: 0.25 + r.Float64()}
	}
	if got, want := edgesFingerprint(graph.FromEdges(n, edges).Canonical().Edges), uint64(0xa9702e0593f92452); got != want {
		t.Errorf("graph.Canonical fingerprint %#x, want %#x", got, want)
	}
}
