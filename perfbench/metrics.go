package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type defs struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// slots says what each end-to-end op metric measures on each workload.
// Every workload prints every end-to-end metric, so the three op slots
// carry each workload's own headline timings.
var slots = map[string][3]string{
	"gnp-sparsify": {"core.ParallelSparsify", "spanner.Compute on the input", "dist.Run(Mesh(2))"},
	"grid-solve":   {"solver.SolveLaplacian", "solver.BuildChain", "linalg.CG with a reused chain"},
}

// serveProbe is where the stream and serve metrics come from. No bounded
// workload calls those layers; the probe's end-to-end figures moved by
// 20-40% from run to run on a 2-CPU box.
const serveProbe = "none bounded: the serve probe in grid-solve's traced run"

// sharded is where the Sharded(2) metrics go: its wall-clock is a
// per-layer metric, as it moved by up to 1.5x between runs of the same
// code on two shared CPUs.
const sharded = "dist.sharded_ms on gnp-sparsify, which has no bound"

// moves names, for each per-layer metric, the end-to-end metric and
// workload it should move. A layer's metrics read 0 on a workload that
// never calls it: there the prediction for any change to it is no
// movement.
var moves = map[string]string{
	// Peak RSS would be end-to-end, but GC timing moves it by more than
	// a tenth from run to run (75-97 MB on grid-solve), so it has no bound.
	"peak_rss_mb":       "none: the memory a user sees, on every workload",
	"gen.graph_s":       "setup_s on both workloads",
	"graph.adjacency_s": "op1_ms and op3_ms on gnp-sparsify",
	"graph.partition_s": "op1_ms and op3_ms on gnp-sparsify",
	"spanner.compute_s": "op1_ms and op2_ms on gnp-sparsify, op1_ms on grid-solve",
	"spanner.edges":     "op1_ms and op2_ms on gnp-sparsify, op1_ms on grid-solve",
	"bundle.compute_s":  "op1_ms on gnp-sparsify",
	"bundle.edges":      "op1_ms on gnp-sparsify",
	"core.alloc_mb":     "op1_ms on gnp-sparsify",
	"core.rounds":       "op1_ms on gnp-sparsify",
	"core.out_edges":    "op1_ms on gnp-sparsify",

	"dist.mem_s":                         "reference point for the overheads below (gnp-sparsify)",
	"dist.sharded_ms":                    "none: the Sharded(2) wall-clock on gnp-sparsify, too noisy to bound",
	"dist.engine_overhead_s":             sharded,
	"dist.shard_overhead_s":              sharded,
	"dist.wire_overhead_s":               "op3_ms on gnp-sparsify",
	"dist.mem_alloc_mb":                  sharded,
	"dist.sharded_alloc_mb":              sharded,
	"dist.mesh_alloc_mb":                 "op3_ms on gnp-sparsify",
	"dist.alloc_per_edge_b":              sharded,
	"dist.sharded_gc_cycles":             sharded,
	"dist.rounds":                        "op3_ms on gnp-sparsify",
	"dist.messages":                      "op3_ms on gnp-sparsify",
	"dist.words":                         "op3_ms on gnp-sparsify",
	"dist.cross_words":                   "op3_ms on gnp-sparsify",
	"dist.phase.spanner_broadcast.words": "op3_ms on gnp-sparsify",
	"dist.phase.spanner_exchange.words":  "op3_ms on gnp-sparsify",
	"dist.phase.spanner_decide.words":    "op3_ms on gnp-sparsify",
	"dist.phase.spanner_update.words":    "op3_ms on gnp-sparsify",
	"dist.phase.spanner_join.words":      "op3_ms on gnp-sparsify",
	"dist.phase.sample.words":            "op3_ms on gnp-sparsify",
	"dist.wire_bytes":                    "op3_ms on gnp-sparsify",
	"dist.data_wire_bytes":               "op3_ms on gnp-sparsify",
	"dist.peak_view_words":               "op3_ms on gnp-sparsify",

	"solver.build_chain_s":      "op1_ms and op2_ms on grid-solve",
	"solver.build_alloc_mb":     "op1_ms and op2_ms on grid-solve",
	"solver.cg_s":               "op1_ms and op3_ms on grid-solve",
	"solver.cg_iters":           "op1_ms and op3_ms on grid-solve",
	"solver.chain_depth":        "op1_ms and op3_ms on grid-solve",
	"solver.chain_nnz":          "op1_ms and op3_ms on grid-solve",
	"solver.chain_nnz_per_edge": "op1_ms and op3_ms on grid-solve",
	"solver.max_twostep_edges":  "op1_ms and op2_ms on grid-solve",
	"solver.sparsified_levels":  "op1_ms and op2_ms on grid-solve",
	"solver.level0_twostep_s":   "op1_ms and op2_ms on grid-solve",
	"solver.level0_sparsify_s":  "op1_ms and op2_ms on grid-solve",

	"stream.ingest_eps":          serveProbe,
	"stream.snapshot_ms":         serveProbe,
	"stream.reduces":             serveProbe,
	"stream.summary_edges":       serveProbe,
	"serve.ingest_eps":           serveProbe,
	"serve.query_p50_ms":         serveProbe,
	"serve.query_p90_ms":         serveProbe,
	"serve.sparsify_p50_ms":      serveProbe,
	"serve.sparsify_p90_ms":      serveProbe,
	"serve.spanner_p50_ms":       serveProbe,
	"serve.spanner_p90_ms":       serveProbe,
	"serve.resistance_p50_ms":    serveProbe,
	"serve.resistance_p90_ms":    serveProbe,
	"serve.stat_p50_ms":          serveProbe,
	"serve.stat_p90_ms":          serveProbe,
	"serve.ingest_rtt_p50_ms":    serveProbe,
	"serve.ingest_rtt_p90_ms":    serveProbe,
	"serve.flush_ms":             serveProbe,
	"serve.epochs":               serveProbe,
	"serve.sparsify_compute_ms":  serveProbe,
	"serve.sparsify_overhead_ms": serveProbe,
	"serve.gen_late_ms":          serveProbe,
	"serve.bitid_failures":       "correct on grid-solve (the serve probe's audit)",

	"overhead.setup_s": "none: tracing cost on setup_s",
	"overhead.op1_ms":  "none: tracing cost on op1_ms",
	"overhead.op2_ms":  "none: tracing cost on op2_ms",
	"overhead.op3_ms":  "none: tracing cost on op3_ms",

	"gen.self_s":     "setup_s on both workloads",
	"graph.self_s":   "op1_ms on both workloads",
	"spanner.self_s": "op1_ms on both workloads, op2_ms on gnp-sparsify",
	"bundle.self_s":  "op1_ms on gnp-sparsify",
	"core.self_s":    "op1_ms on both workloads",
	"dist.self_s":    "op3_ms on gnp-sparsify",
	"solver.self_s":  "op1_ms on grid-solve",
	"stream.self_s":  serveProbe,
	"serve.self_s":   serveProbe,
}

// loadDefs reads the metric declarations and checks that they match the
// metrics this program knows how to measure.
func loadDefs(path string) (defs, error) {
	var d defs
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range d.EndToEnd {
		switch m.Name {
		case "setup_s", "op1_ms", "op2_ms", "op3_ms":
		default:
			return d, fmt.Errorf("%s: no measurement for end-to-end metric %q", path, m.Name)
		}
	}
	seen := map[string]bool{}
	for _, m := range d.PerLayer {
		if _, ok := moves[m.Name]; !ok {
			return d, fmt.Errorf("%s: no measurement for per-layer metric %q", path, m.Name)
		}
		seen[m.Name] = true
	}
	for name := range moves {
		if !seen[name] {
			return d, fmt.Errorf("%s: per-layer metric %q is measured but not declared", path, name)
		}
	}
	return d, nil
}
