package solver

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/vec"
)

// estimateSigma2Basis is the form estimateSigma2 had before its
// deflation shared one vector: one n-vector per component, deflated
// one at a time. It is the reference for TestEstimateSigmaMatchesBasisForm.
func estimateSigma2Basis(g *graph.Graph, l *matrix.CSR, invDiag []float64) float64 {
	n := l.N
	if n == 1 {
		return 0
	}
	labels, count := graph.Components(g, nil)
	basis := make([][]float64, 0, count)
	for c := 0; c < count; c++ {
		v := make([]float64, n)
		for i := 0; i < n; i++ {
			if int(labels[i]) == c && invDiag[i] > 0 {
				v[i] = math.Sqrt(1 / invDiag[i])
			}
		}
		if nrm := vec.Norm2(v); nrm > 0 {
			vec.Scale(1/nrm, v)
			basis = append(basis, v)
		}
	}
	if len(basis) == 0 {
		return 0
	}
	x := make([]float64, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range x {
		state = state*6364136223846793005 + 1442695040888963407
		x[i] = float64(int64(state>>11))/(1<<52) - 1
	}
	deflate := func(v []float64) {
		for _, q := range basis {
			vec.Axpy(-vec.Dot(v, q), q, v)
		}
	}
	deflate(x)
	if nx := vec.Norm2(x); nx > 0 {
		vec.Scale(1/nx, x)
	}
	tmp := make([]float64, n)
	y := make([]float64, n)
	sigma := 0.0
	for iter := 0; iter < 60; iter++ {
		applyS(l, invDiag, tmp, x, y)
		deflate(y)
		applyS(l, invDiag, tmp, y, x)
		deflate(x)
		nx := vec.Norm2(x)
		if nx == 0 {
			return 0
		}
		newSigma := math.Sqrt(nx)
		vec.Scale(1/nx, x)
		if iter > 4 && math.Abs(newSigma-sigma) < 1e-3*newSigma {
			sigma = newSigma
			break
		}
		sigma = newSigma
	}
	return math.Min(sigma, 1)
}

// TestEstimateSigmaMatchesBasisForm checks the shared-vector deflation
// against the per-component basis on every level of the chain of
// TestBuildChainOnDisconnectedGraph's two cliques.
func TestEstimateSigmaMatchesBasisForm(t *testing.T) {
	k := gen.Complete(20)
	g := graph.New(40)
	for _, e := range k.Edges {
		g.Edges = append(g.Edges, e, graph.Edge{U: e.U + 20, V: e.V + 20, W: 1})
	}
	chain, err := BuildChain(g, ChainOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, lvl := range chain.Levels {
		want := estimateSigma2Basis(lvl.G, lvl.L, lvl.InvDiag)
		if got := lvl.Sigma; math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Errorf("level %d: sigma %v, basis form %v", i, got, want)
		}
	}
}

// TestBuildChainSparseAllocation: a graph with many components (one
// edge on n vertices, a perfect matching) must build its chain in
// memory linear in n. The per-component basis allocated an n-vector
// per component: 17.2 GB at n = 32,768 against ~7.5 MB now.
func TestBuildChainSparseAllocation(t *testing.T) {
	matching := graph.New(8192)
	for v := int32(0); v < 8192; v += 2 {
		matching.Edges = append(matching.Edges, graph.Edge{U: v, V: v + 1, W: 1})
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"one edge", graph.FromEdges(32768, []graph.Edge{{U: 0, V: 1, W: 1}})},
		{"matching", matching},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := BuildChain(tc.g, ChainOptions{Seed: 1}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - before.TotalAlloc
		if budget := uint64(1024 * tc.g.N); alloc > budget {
			t.Errorf("%s on %d vertices: BuildChain allocated %d bytes, budget %d (1 KB per vertex)",
				tc.name, tc.g.N, alloc, budget)
		}
	}
}
