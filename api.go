package repro

import (
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pram"
	"repro/internal/resistance"
	"repro/internal/serve"
	"repro/internal/solver"
	"repro/internal/spanner"
	"repro/internal/spectral"
	"repro/internal/stream"
)

// Graph is a weighted undirected graph; see the graph package for the
// full method set (Canonical, Validate, Subgraph, ...).
type Graph = graph.Graph

// Edge is one weighted undirected edge of a Graph.
type Edge = graph.Edge

// NewGraph returns an empty graph on n vertices. Append to g.Edges or
// use FromEdges to populate it.
func NewGraph(n int) *Graph { return graph.New(n) }

// FromEdges builds a graph over n vertices from an edge list.
func FromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// TransportSpec describes how the distributed entry points execute —
// see the dist package for the full story. Specs are plain values:
// Mem() is the single-process in-memory simulation (the default and
// the zero spec), Sharded(p) partitions the rounds across p worker
// goroutines, Mesh(p) runs the whole multi-process protocol over real
// loopback TCP sockets inside this process, and dist.Net / dist.Worker
// drive real multi-process deployments (see cmd/distworker and
// dist.Run, which those specs require so that network failures can
// surface as errors).
//
// Equivalence guarantee: for equal Options every spec produces
// bit-identical output and an identical DistStats ledger at any shard
// count and any GOMAXPROCS — the transport moves messages, never
// decisions. Only the honesty counters of distribution (the CrossShard
// split, wire bytes, per-worker peak memory) differ.
type TransportSpec = dist.TransportSpec

// Mem returns the in-memory transport spec (the default).
func Mem() TransportSpec { return dist.Mem() }

// Sharded returns the sharded in-process transport spec with p worker
// goroutines.
func Sharded(p int) TransportSpec { return dist.Sharded(p) }

// Mesh returns the loopback-TCP multi-process transport spec with p
// shards: a coordinator plus p−1 worker goroutines on real sockets,
// the workers dialing each other directly so every worker↔worker round
// batch crosses the wire once.
func Mesh(p int) TransportSpec { return dist.Mesh(p) }

// ParseTransport maps a spec name plus a shard count to a
// TransportSpec — the one grammar behind every CLI -transport flag:
// "mem" (shards ignored), "sharded", or "mesh" (loopback sockets; both
// need shards ≥ 1). An empty name defaults to "sharded", matching the
// historical meaning of a bare -shards flag.
func ParseTransport(name string, shards int) (TransportSpec, error) {
	switch name {
	case "", "sharded":
		if shards < 1 {
			return TransportSpec{}, fmt.Errorf("repro: transport %q needs shards >= 1", name)
		}
		return Sharded(shards), nil
	case "mem":
		return Mem(), nil
	case "mesh":
		if shards < 1 {
			return TransportSpec{}, fmt.Errorf("repro: transport mesh needs shards >= 1")
		}
		return Mesh(shards), nil
	default:
		return TransportSpec{}, fmt.Errorf("repro: unknown transport %q (mem, sharded, mesh)", name)
	}
}

// Options configures the sparsification entry points.
type Options struct {
	// Seed drives all randomness (default 1).
	Seed uint64
	// Theory selects the paper's constants (t = 24·log²n/ε² bundles);
	// the default is the calibrated practical configuration. With
	// theory constants any laptop-scale graph is swallowed whole by the
	// bundle and the algorithm is the identity — correct, but only
	// interesting asymptotically.
	Theory bool
	// BundleT overrides the bundle thickness formula when positive.
	BundleT int
	// Transport selects how DistributedSparsify and DistributedSpanner
	// execute: Mem() (the zero value, the default), Sharded(p), or
	// Mesh(p) — see TransportSpec for the catalogue and the equivalence
	// guarantee. Ignored by the shared-memory entry points.
	Transport TransportSpec
	// Tracker, when non-nil, accumulates modeled CRCW PRAM work/depth.
	Tracker *pram.Tracker
}

func (o Options) config() core.Config {
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	var cfg core.Config
	if o.Theory {
		cfg = core.TheoryConfig(seed)
	} else {
		cfg = core.DefaultConfig(seed)
	}
	cfg.BundleT = o.BundleT
	cfg.Tracker = o.Tracker
	return cfg
}

// SampleReport aliases the per-round statistics of Algorithm 1.
type SampleReport = core.SampleStats

// SparsifyReport aliases the aggregate statistics of Algorithm 2.
type SparsifyReport = core.SparsifyStats

// Sample runs one round of the paper's Algorithm 1 (PARALLELSAMPLE) at
// accuracy eps ∈ (0, 1]: it keeps a bundle of spanners plus a 1/4
// uniform sample of the rest (reweighted ×4), roughly halving the
// non-structural edges while (1±ε)-preserving the Laplacian quadratic
// form with high probability. eps outside (0,1] is an error.
func Sample(g *Graph, eps float64, opt Options) (*Graph, *SampleReport, error) {
	return core.ParallelSample(g, eps, opt.config())
}

// Sparsify runs the paper's Algorithm 2 (PARALLELSPARSIFY): ⌈log₂ρ⌉
// rounds of Sample at accuracy eps/⌈log₂ρ⌉, reducing the edge count
// towards n·polylog(n) + m/ρ while (1±ε)-preserving the quadratic form.
// A per-round accuracy outside (0,1] is an error.
func Sparsify(g *Graph, eps, rho float64, opt Options) (*Graph, *SparsifyReport, error) {
	return core.ParallelSparsify(g, eps, rho, opt.config())
}

// SampleTreeBundle runs the Remark 2 variant of Algorithm 1: the
// certification bundle is t low-stretch spanning forests instead of t
// spanners, shrinking the bundle by ~log n at the cost of a weaker
// (average-stretch) certificate. See experiment E11 for the measured
// trade.
func SampleTreeBundle(g *Graph, eps float64, t int, opt Options) (*Graph, *SampleReport, error) {
	return core.ParallelSampleTreeBundle(g, eps, t, opt.config())
}

// Spanner computes a Baswana–Sen log n-spanner of g in the paper's
// resistive-stretch metric: every edge of g has stretch ≤ 2⌈log₂n⌉−1
// over the returned subgraph, which has O(n log n) edges in expectation.
func Spanner(g *Graph, opt Options) *Graph {
	adj := graph.NewAdjacency(g)
	res := spanner.Compute(g, adj, nil, spanner.Options{Seed: opt.Seed, Tracker: opt.Tracker})
	return g.Subgraph(res.InSpanner)
}

// BundleSpanner computes a t-bundle spanner of g (Definition 1): t
// edge-disjoint spanners peeled off one after another. Every edge left
// outside the bundle has leverage w_e·R_e[g] ≤ (2⌈log₂n⌉−1)/t (Lemma 1).
func BundleSpanner(g *Graph, t int, opt Options) *Graph {
	adj := graph.NewAdjacency(g)
	res := bundle.Compute(g, adj, nil, bundle.Options{T: t, Seed: opt.Seed, Tracker: opt.Tracker})
	return g.Subgraph(res.InBundle)
}

// EffectiveResistances returns R_e for every edge of g, computed with
// the Spielman–Srivastava Johnson–Lindenstrauss sketch (a handful of
// Laplacian solves in total). A solve breakdown — possible only on
// numerically indefinite input — is an error.
func EffectiveResistances(g *Graph, opt Options) ([]float64, error) {
	return resistance.AllEdgesApprox(g, resistance.ApproxOptions{Seed: opt.Seed})
}

// EffectiveResistance returns the exact effective resistance between
// two vertices of g (one Laplacian solve).
func EffectiveResistance(g *Graph, u, v int32) (float64, error) {
	return resistance.NewSolver(g).Pair(u, v)
}

// ApproxBounds holds measured spectral approximation bounds: for all x,
// Lo·xᵀL_Gx ≤ xᵀL_Hx ≤ Hi·xᵀL_Gx.
type ApproxBounds = spectral.Bounds

// Bounds measures how well h spectrally approximates g (both must be
// connected): it returns the extreme generalized eigenvalues of the
// pencil (L_h, L_g) estimated by power iteration with inner CG solves.
func Bounds(g, h *Graph, opt Options) (ApproxBounds, error) {
	return spectral.ApproxFactor(g, h, spectral.Options{Seed: opt.Seed})
}

// SolveResult aliases the solver's convergence report.
type SolveResult = solver.SolveResult

// SolveLaplacian solves L_g·x = b to relative residual tol with the
// Peng–Spielman chain-preconditioned conjugate gradient (Theorem 6's
// solver with the paper's sparsifier inside the chain). b is projected
// orthogonal to the all-ones null space.
func SolveLaplacian(g *Graph, b []float64, tol float64, opt Options) ([]float64, SolveResult, error) {
	return solver.SolveLaplacian(g, b, tol, solver.ChainOptions{Seed: opt.Seed})
}

// SDDMatrix is a symmetric diagonally dominant matrix; see solver.SDD.
type SDDMatrix = solver.SDD

// SDDEntry is a strictly-upper off-diagonal entry of an SDDMatrix.
type SDDEntry = solver.SDDEntry

// SolveSDD solves M·x = b for a symmetric diagonally dominant matrix by
// Gremban reduction to a Laplacian of twice the dimension followed by
// SolveLaplacian.
func SolveSDD(m *SDDMatrix, b []float64, tol float64, opt Options) ([]float64, SolveResult, error) {
	return solver.SolveSDD(m, b, tol, solver.ChainOptions{Seed: opt.Seed})
}

// StreamSparsifier maintains a bounded-memory spectral summary of an
// edge stream via merge-and-reduce over Sample (the semi-streaming
// setting of Kelner–Levin that the paper's related work discusses).
type StreamSparsifier = stream.Sparsifier

// StreamOptions configures a StreamSparsifier.
type StreamOptions = stream.Options

// NewStream returns a semi-streaming sparsifier over n vertices;
// Ingest edges, then Finish for the summary graph (or Snapshot for a
// non-destructive read of the live stream).
func NewStream(n int, opt StreamOptions) *StreamSparsifier {
	return stream.New(n, opt)
}

// SparsifierServer is the sparsifier-as-a-service core: a long-lived
// TCP server holding named dynamic graphs, answering sparsify /
// spanner / resistance / solve queries over immutable epoch snapshots
// while clients stream edges in. See internal/serve for the
// epoch/session model and cmd/sparsifyd for the daemon CLI.
type SparsifierServer = serve.Server

// SparsifierClient is a connection to a SparsifierServer (or a
// sparsifyd daemon).
type SparsifierClient = serve.Client

// ServeConfig configures a SparsifierServer.
type ServeConfig = serve.Config

// ServeGraphOptions are a served graph's create-time knobs: the epoch
// update budget, the stream buffer, the per-reduce accuracy, and the
// seed driving all of the graph's randomness.
type ServeGraphOptions = serve.GraphOptions

// ServeInfo is the counter record every service response carries:
// which immutable epoch answered and where ingest currently stands.
type ServeInfo = serve.Info

// ListenSparsifier binds a sparsifier service on cfg.Listen and
// returns the server ready for Serve; Shutdown drains it (in-flight
// requests are answered, new connections refused).
func ListenSparsifier(cfg ServeConfig) (*SparsifierServer, error) {
	return serve.Listen(cfg)
}

// DialSparsifier connects to a sparsifier service.
func DialSparsifier(addr string) (*SparsifierClient, error) {
	return serve.Dial(addr)
}

// ServeQuerySeed derives the seed a service query against epoch e of a
// graph created with seed s runs under — half of the service's
// determinism contract: replaying a graph's ingested prefix through
// NewStream(+Snapshot) and re-running the query's algorithm under
// ServeQuerySeed(s, e) reproduces the served answer bit for bit.
func ServeQuerySeed(seed, epoch uint64) uint64 {
	return serve.QuerySeed(seed, epoch)
}

// DistStats aliases the distributed communication ledger.
type DistStats = dist.Stats

// DistributedSparsify runs Algorithm 2 in the distributed model — one
// dist.Engine.Run of the sparsify job on Options.Transport — and
// returns the sparsifier plus the communication ledger (rounds,
// messages, words) that Theorem 5 bounds. Options are honored as in
// Sparsify (BundleT overrides the bundle depth, Theory selects the
// paper's constants), and for equal Options the output is
// edge-identical to Sparsify on every transport spec. A transport
// failure (possible only on the multi-process specs) panics; use
// dist.Run directly to handle such errors.
func DistributedSparsify(g *Graph, eps, rho float64, opt Options) (*Graph, DistStats) {
	res, err := dist.Run(dist.NewEngine(opt.Transport, g), dist.SparsifyJob(eps, rho, opt.config()))
	if err != nil {
		panic("repro: DistributedSparsify: " + err.Error())
	}
	return res.Output, res.Stats
}

// DistributedSpanner computes the Baswana–Sen log n-spanner in the
// distributed model — one dist.Engine.Run of the spanner job on
// Options.Transport — and returns the spanner subgraph plus the
// communication ledger Theorem 2 bounds (O(log² n) rounds, O(m log n)
// messages of O(1) words). The edge selection is bit-identical to
// Spanner's for equal Options on every transport spec. A transport
// failure (possible only on the multi-process specs) panics; use
// dist.Run directly to handle such errors.
func DistributedSpanner(g *Graph, opt Options) (*Graph, DistStats) {
	res, err := dist.Run(dist.NewEngine(opt.Transport, g), dist.SpannerJob(0, opt.Seed))
	if err != nil {
		panic("repro: DistributedSpanner: " + err.Error())
	}
	return res.Output.G, res.Stats
}

// SpielmanSrivastava runs the effective-resistance sampling baseline at
// accuracy eps. A failed resistance computation is an error.
func SpielmanSrivastava(g *Graph, eps float64, opt Options) (*Graph, error) {
	return baseline.SpielmanSrivastava(g, baseline.SSOptions{Eps: eps, Seed: opt.Seed})
}

// UniformSample keeps each edge independently with probability p at
// weight w/p — the strawman baseline.
func UniformSample(g *Graph, p float64, opt Options) *Graph {
	return baseline.Uniform(g, p, opt.Seed)
}

// Convenience generators re-exported for examples and quick use.

// Gnp returns an Erdős–Rényi random graph.
func Gnp(n int, p float64, seed uint64) *Graph { return gen.Gnp(n, p, seed) }

// Grid2D returns the rows×cols grid graph.
func Grid2D(rows, cols int) *Graph { return gen.Grid2D(rows, cols) }

// Complete returns the complete graph K_n.
func Complete(n int) *Graph { return gen.Complete(n) }

// Barbell returns two K_k cliques joined by a path of bridgeLen edges.
func Barbell(k, bridgeLen int) *Graph { return gen.Barbell(k, bridgeLen) }

// StretchBound returns the spanner stretch guarantee 2⌈log₂n⌉−1 used
// throughout the library for graphs on n vertices.
func StretchBound(n int) float64 {
	if n < 2 {
		return 1
	}
	k := math.Ceil(math.Log2(float64(n)))
	if k < 2 {
		k = 2
	}
	return 2*k - 1
}
