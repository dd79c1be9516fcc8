package main

import (
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/solver"
)

// grid-solve: the paper's solver application, a Peng–Spielman chain
// preconditioning CG on a 40x40 grid — sparse, planar and
// ill-conditioned, the opposite of gnp-sparsify.
const (
	gridSide = 40
	solveTol = 1e-8
	// cgRHS is how many seeded right-hand sides one timed CG sweep
	// solves: CG takes 11 or 12 iterations depending on the right-hand
	// side, and a single one would make op3_ms differ by seed.
	cgRHS    = 10
	cgSweeps = 3 // CG sweeps per pass
)

func runGrid(b *bench) {
	// The workload seed makes the input, the right-hand side; the chain's
	// own seed stays fixed, so every run builds the same chain.
	opt := solver.ChainOptions{Seed: 1}
	var (
		g     *graph.Graph
		rhs   []float64
		cgSet [][]float64 // rhs first, then cgRHS-1 more from the seed
		lap   *matrix.CSR
		genS  []float64
	)
	b.setups(9, func(tr *tracer) {
		id, end := tr.begin(0, "bench", "setup")
		defer end()
		_, endGen := tr.begin(id, "gen", "gen.Grid2D")
		start := time.Now()
		g = gen.Grid2D(gridSide, gridSide)
		genS = append(genS, time.Since(start).Seconds())
		endGen()
		rhs = gridRHS(g.N, b.seed)
		cgSet = [][]float64{rhs}
		for i := uint64(1); i < cgRHS; i++ {
			cgSet = append(cgSet, gridRHS(g.N, b.seed*cgRHS+i))
		}
		lap = matrix.Laplacian(g)
		// Warm-up: one solve on a quarter-size grid.
		_, endWarm := tr.begin(id, "solver", "solver.SolveLaplacian (warm-up)")
		small := gen.Grid2D(gridSide/2, gridSide/2)
		x, _, err := solver.SolveLaplacian(small, gridRHS(small.N, b.seed), solveTol, opt)
		endWarm()
		b.op(err, x != nil, "warm-up solver.SolveLaplacian")
	})
	b.vals["gen.graph_s"] = median(genS)
	cgOpt := linalg.CGOptions{Tol: solveTol, ProjectOnes: true, MaxIter: 20*g.N + 200} // SolveLaplacian's options

	var chain *solver.Chain
	var iters int
	b.timed(func(tr *tracer, until time.Time) map[string]float64 {
		var t [3][]float64
		for pass := 0; pass < minPasses || time.Now().Before(until); pass++ {
			pid, endPass := tr.begin(0, "bench", "grid pass")

			var (
				x   []float64
				err error
			)
			solve := b.timeOp(tr, pid, "solver", "solver.SolveLaplacian", func() {
				x, _, err = solver.SolveLaplacian(g, rhs, solveTol, opt)
			})
			t[0] = append(t[0], solve.ms)
			b.checkSolve("solver.SolveLaplacian", g, x, rhs, err)

			var c *solver.Chain
			build := b.timeOp(tr, pid, "solver", "solver.BuildChain", func() {
				c, err = solver.BuildChain(g, opt)
			})
			t[1] = append(t[1], build.ms)
			if !b.op(err, true, "solver.BuildChain") {
				endPass()
				continue
			}
			chain = c
			if tr != nil {
				b.vals["solver.build_alloc_mb"] = build.allocBytes / 1e6
			}

			// A reused chain makes a solve ~100x cheaper than a build, so
			// each pass times several sweeps over the right-hand sides;
			// one sample is a sweep's mean time per solve. CG allocates
			// little, so these calls skip timeOp's collection and run back
			// to back on a warm cache.
			o := cgOpt
			o.Prec = c
			runtime.GC()
			for sweep := 0; sweep < cgSweeps; sweep++ {
				b.cal.run()
				var sum float64
				for i, r := range cgSet {
					var res linalg.CGResult
					x = make([]float64, g.N)
					_, end := tr.begin(pid, "solver", "linalg.CG (reused chain)")
					start := time.Now()
					res, err = linalg.CG(linalg.CSROp{M: lap}, r, x, o)
					sum += ms(time.Since(start))
					end()
					if i == 0 {
						iters = res.Iterations
					}
					b.checkSolve("linalg.CG with the chain", g, x, r, err)
				}
				t[2] = append(t[2], sum/float64(len(cgSet)))
			}
			endPass()
		}
		b.note("op samples (ms): solve %.0f; build %.0f; cg %.1f", t[0], t[1], t[2])
		return map[string]float64{"op1_ms": median(t[0]), "op2_ms": median(t[1]), "op3_ms": median(t[2])}
	})
	b.note("n=%d m=%d tol=%g cg_iters=%d", g.N, len(g.Edges), solveTol, iters)
	b.note("solve_s=%.4f s", b.vals["op1_ms"]/1e3)
	if !b.traced || chain == nil {
		return
	}
	b.vals["solver.build_chain_s"] = b.vals["op2_ms"] / 1e3
	b.vals["solver.cg_s"] = b.vals["op3_ms"] / 1e3
	b.vals["solver.cg_iters"] = float64(iters)
	b.vals["solver.chain_depth"] = float64(chain.Depth())
	b.vals["solver.chain_nnz"] = float64(chain.TotalNNZ)
	b.vals["solver.chain_nnz_per_edge"] = float64(chain.TotalNNZ) / float64(len(g.Edges))
	for _, s := range chain.BuildStats {
		b.vals["solver.max_twostep_edges"] = math.Max(b.vals["solver.max_twostep_edges"], float64(s.EdgesTwoStep))
		if s.Sparsified {
			b.vals["solver.sparsified_levels"]++
		}
	}
	b.probeGraph(g, b.seed)
	b.probeLevel0(g, opt, chain.BuildStats[0])
	// grid-solve never calls stream or serve, so the serve probe runs
	// here without disturbing any of this workload's layer numbers.
	b.probeServe()
}

// probeLevel0 splits the chain's first level between its two callee
// layers: solver.TwoStep on the input, then core.ParallelSparsify on the
// result at BuildChain's level settings. The probe must reproduce the
// chain's level-0 edge count.
func (b *bench) probeLevel0(g *graph.Graph, opt solver.ChainOptions, want solver.LevelStats) {
	pid, end := b.tr.begin(0, "bench", "probe chain level 0")
	defer end()
	cur := g.Canonical()
	var next *graph.Graph
	b.vals["solver.level0_twostep_s"] = timeMedian(b.tr, pid, "solver", "solver.TwoStep", probeReps, func() {
		next = solver.TwoStep(cur, solver.TwoStepOptions{Seed: opt.Seed})
	})
	limit := max(len(cur.Edges), cur.N) // BuildChain's default growth cap of 1
	if len(next.Edges) <= limit {
		b.op(nil, !want.Sparsified, "chain level 0 is not sparsified")
		return
	}
	cfg := core.DefaultConfig(opt.Seed ^ core.RoundSeedMix) // BuildChain's level-0 seed
	cfg.BundleT = 2
	rho := float64(len(next.Edges)) / float64(limit)
	var (
		out   *graph.Graph
		st    *core.SparsifyStats
		err   error
		alloc float64
	)
	b.vals["solver.level0_sparsify_s"] = timeMedian(b.tr, pid, "core", "core.ParallelSparsify (level 0)", probeReps, func() {
		h := readHeap()
		out, st, err = core.ParallelSparsify(next, 0.3, rho, cfg)
		alloc, _ = h.since()
	})
	b.recordCore(alloc, st)
	b.op(err, err == nil && len(out.Canonical().Edges) == want.EdgesOut, "level-0 probe reproduces the chain's level 0")
}

// checkSolve recomputes the relative residual ||Lx-b||/||b|| from the
// edge list and requires it to be within the solve tolerance.
func (b *bench) checkSolve(what string, g *graph.Graph, x, rhs []float64, err error) {
	if err != nil {
		b.op(err, false, what)
		return
	}
	r := append([]float64(nil), rhs...)
	for _, e := range g.Edges {
		d := e.W * (x[e.U] - x[e.V])
		r[e.U] -= d
		r[e.V] += d
	}
	res := norm(r) / norm(rhs)
	if !b.op(nil, res <= solveTol, what+" residual within tol") {
		b.note("%s: residual %.3g > tol %g", what, res, solveTol)
	}
}

// gridRHS returns a seeded right-hand side orthogonal to the all-ones
// vector.
func gridRHS(n int, seed uint64) []float64 {
	rng := rand.New(rand.NewSource(int64(seed)))
	b := make([]float64, n)
	mean := 0.0
	for i := range b {
		b[i] = rng.NormFloat64()
		mean += b[i]
	}
	mean /= float64(n)
	for i := range b {
		b[i] -= mean
	}
	return b
}

func norm(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
