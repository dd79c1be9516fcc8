package dist

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/graph"
)

// Engine is the single entry point of the distributed subsystem: it
// binds a TransportSpec (how rounds execute) to an input (the graph or
// one shard's partition of it) and owns everything between — partition
// loading, the exchange core, the round barrier, and the gathering of
// Stats, PeakViewWords, and WireBytes. Run(engine, job) executes any
// Job on it; the same job value runs unchanged on every spec, which is
// the paper's one-algorithm-many-models promise made into an API
// shape.
type Engine struct {
	spec TransportSpec
	g    *graph.Graph
	part *graph.Partition
}

// NewEngine returns an engine over a full graph. Every spec accepts
// it: the in-process specs run the graph directly, Mesh carves one
// partition per worker goroutine, and the multi-process specs (Net,
// Worker) carve this process's own shard — use NewPartitionEngine
// instead when the shard was loaded from a partition file and the full
// graph was never materialized.
func NewEngine(spec TransportSpec, g *graph.Graph) *Engine {
	return &Engine{spec: spec, g: g}
}

// NewPartitionEngine returns an engine over one pre-loaded partition —
// the memory-honest input of the multi-process specs (Net and Worker),
// where a process materializes only its shard's adjacency plus
// boundary edges (graphio.ReadPartition).
func NewPartitionEngine(spec TransportSpec, part *graph.Partition) *Engine {
	return &Engine{spec: spec, part: part}
}

// Result is Run's envelope around a job's output: the assembled result
// plus the run-wide honesty counters every spec reports.
type Result[R any] struct {
	// Output is the job's assembled result. On a Worker engine it is
	// the zero value — assembly happens at the coordinator.
	Output R
	// Stats is the communication ledger of the run (Theorems 2 and 5).
	// It is identical on every spec and, for multi-process runs, on
	// every process (each sums every shard's local round tallies).
	Stats Stats
	// PeakViewWords is the largest edge-table footprint (in words, see
	// view.tableWords) any round's working view reached. On the
	// single-process specs this is Θ(m) — one process holds everything;
	// on a multi-process run the coordinator reports the MAXIMUM across
	// all processes, i.e. the per-worker O(m_incident) bound the memory
	// regression tests pin and E13 reports, while a Worker engine
	// reports its own local peak.
	PeakViewWords int
	// WireBytes is the total bytes put on real sockets, frame headers
	// included: zero for the in-process specs, the sum across all
	// processes at a Mesh or Net coordinator, and this process's own
	// bytes on a Worker engine.
	WireBytes int64
	// DataWireBytes is the worker↔worker round-batch subset of
	// WireBytes — the bytes on the direct links between workers, each
	// batch written exactly once. Zero at P ≤ 2, where the only
	// worker talks to the coordinator alone.
	DataWireBytes int64
}

// Run executes a job on an engine and returns the typed result. (This
// is Engine.Run in spirit; it is a package function only because Go
// methods cannot introduce type parameters.)
//
// The spec decides the execution shape: Mem and Sharded run the whole
// graph in this process; Mesh runs the Net and Worker drivers below as
// an in-process fleet over loopback TCP; Net drives a real
// coordinator — listen, broadcast the job's name and parameters, run
// shard 0, assemble — and Worker drives one real worker shard, which
// adopts the coordinator's broadcast parameters (the local job value
// supplies the algorithm and is cross-checked against the broadcast
// name) and returns the zero Output.
//
// For equal (job, seed) the output and Stats are bit-identical on
// every spec. Network failures (I/O errors, timeouts, protocol or job
// mismatches) surface as errors; the in-process specs cannot fail.
func Run[R any](e *Engine, job Job[R]) (Result[R], error) {
	if job.impl == nil {
		return Result[R]{}, fmt.Errorf("dist: Run needs a job (SpannerJob, SparsifyJob, ...)")
	}
	switch e.spec.kind {
	case specMem, specSharded:
		return runInProcess(e, job)
	case specMesh:
		return runMesh(e, job)
	case specNet:
		return runNetCoordinatorJob(e, job)
	case specWorker:
		return runNetWorkerJob(e, job)
	default:
		return Result[R]{}, fmt.Errorf("dist: unknown transport spec %v", e.spec)
	}
}

// runInProcess executes the job's full-graph path on a single-process
// transport (Mem or Sharded).
func runInProcess[R any](e *Engine, job Job[R]) (Result[R], error) {
	if e.g == nil {
		return Result[R]{}, fmt.Errorf("dist: the %s spec needs a full graph (use NewEngine)", e.spec)
	}
	var tr Transport
	if e.spec.kind == specSharded {
		tr = NewShardedTransport(e.g.N, e.spec.shards)
	} else {
		tr = NewMemTransport(e.g.N)
	}
	re := newRoundEngineOn(e.g.N, tr)
	out, peak := job.impl.runFull(re, e.g)
	return Result[R]{Output: out, Stats: re.Stats(), PeakViewWords: peak}, nil
}

// partitionFor resolves the engine's input to the partition this
// process runs: the pre-loaded one when present (validated against the
// spec), else the shard carved out of the full graph.
func (e *Engine) partitionFor(shard, shards int) (*graph.Partition, error) {
	if e.part != nil {
		if e.part.Shard != shard || e.part.Shards != shards {
			return nil, fmt.Errorf("dist: engine holds partition shard %d of %d, but the %s spec needs shard %d of %d",
				e.part.Shard, e.part.Shards, e.spec, shard, shards)
		}
		return e.part, nil
	}
	if e.g == nil {
		return nil, fmt.Errorf("dist: the %s spec needs a graph or a partition", e.spec)
	}
	if clamped := graph.ClampShards(e.g.N, shards); clamped != shards {
		return nil, fmt.Errorf("dist: %d shards invalid for %d vertices", shards, e.g.N)
	}
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("dist: shard %d out of range [0,%d)", shard, shards)
	}
	return graph.PartitionOf(e.g, shard, shards), nil
}

// runNetCoordinatorJob drives the coordinator (shard 0) of a real
// multi-process run: listen, announce the bound address, await the
// workers, broadcast the job header and the recovery checkpoint, run
// this shard, assemble. When the spec carries a respawn hook, a worker
// failure is not fatal: the coordinator rolls the survivors back,
// respawns the dead shard (within the MaxRespawns budget), and re-runs
// the attempt — which replays deterministically from the checkpoint,
// so the eventual output is bit-identical to a failure-free run. A
// Resume blob seeds the checkpoint state instead of starting empty —
// the elastic-restart path, valid at any shard count.
func runNetCoordinatorJob[R any](e *Engine, job Job[R]) (Result[R], error) {
	cfg := e.spec.net
	part, err := e.partitionFor(0, cfg.Shards)
	if err != nil {
		return Result[R]{}, err
	}
	tr, err := listenNet(part.N, cfg)
	if err != nil {
		return Result[R]{}, err
	}
	defer tr.Close()
	tr.failAfterFrames = cfg.FailAfterFrames
	if cfg.OnListen != nil {
		cfg.OnListen(tr.Addr())
	}
	ck := &ckptState{}
	if cfg.Resume != nil {
		if ck, err = decodeCkpt(cfg.Resume); err != nil {
			return Result[R]{}, fmt.Errorf("dist: decoding resume checkpoint: %w", err)
		}
	}
	ck.every = cfg.CheckpointEvery
	ck.onDurable = cfg.OnCheckpoint
	return runCoordinatorLoop(tr, part, job, ck, cfg.Respawn, cfg.MaxRespawns)
}

// runCoordinatorLoop is the coordinator's retry loop, shared by a
// born coordinator (runNetCoordinatorJob) and an elected one
// (adoptAndRun): run attempts, recovering the fleet after each worker
// failure through respawn while the budget lasts.
func runCoordinatorLoop[R any](tr *NetTransport, part *graph.Partition, job Job[R], ck *ckptState,
	respawn func(shard int, addr string), budget int) (Result[R], error) {
	for {
		res, err := runNetJob(tr, part, job, ck)
		if err == nil {
			return res, nil
		}
		var wf *workerFailure
		if respawn == nil || budget <= 0 || !errors.As(err, &wf) {
			return Result[R]{}, err
		}
		if rerr := tr.recoverWorkers(wf.shard, respawn, &budget); rerr != nil {
			return Result[R]{}, fmt.Errorf("dist: recovering from %v: %w", err, rerr)
		}
	}
}

// runNetWorkerJob drives one worker shard of a real multi-process run.
// A coordinator-announced rollback (another worker died) unwinds the
// attempt; the worker acks it and re-runs, adopting the re-broadcast
// header and checkpoint like any fresh joiner. With failover armed, a
// LOST coordinator triggers the election instead of failing the run:
// the lowest-numbered shard in the last broadcast peer address book
// adopts shard 0 (and this process, if elected, finishes the run as
// the coordinator, returning the assembled Output), while every other
// survivor rejoins the winner's peer listener as its old shard.
func runNetWorkerJob[R any](e *Engine, job Job[R]) (Result[R], error) {
	cfg := e.spec.worker
	part, err := e.partitionFor(cfg.Shard, cfg.Shards)
	if err != nil {
		return Result[R]{}, err
	}
	tr, err := joinNetRetry(part.N, cfg)
	if err != nil {
		return Result[R]{}, err
	}
	tr.failAfterFrames = cfg.FailAfterFrames
	defer func() {
		if tr != nil {
			tr.Close()
		}
	}()
	for {
		res, err := runNetJob(tr, part, job, nil)
		if err == nil {
			return res, nil
		}
		var rb *rollbackError
		if errors.As(err, &rb) {
			if aerr := tr.ackRollback(rb.generation); aerr != nil {
				return Result[R]{}, aerr
			}
			continue
		}
		if !cfg.Failover || !isConnLoss(err) {
			return Result[R]{}, err
		}
		elected := tr.electedShard()
		if elected < 0 {
			return Result[R]{}, fmt.Errorf("dist: coordinator lost before the first peer-book broadcast (fleet never fully formed), nothing to elect from: %w", err)
		}
		// The hub is lost: drop its queued batches rather than wait out
		// a write deadline for each of them.
		tr.links[0].abort()
		if elected == tr.self {
			adopted := tr
			tr = nil // ownership moves; adoptAndRun closes it
			return adoptAndRun(e, adopted, job)
		}
		// Survivor: rejoin the winner's peer listener as the same shard,
		// with a fresh peer listener of its own, and re-run the attempt
		// like any respawned worker. The rejoin window covers at least
		// one full I/O timeout so the winner has time to adopt.
		rejoin := cfg
		rejoin.Join = tr.meshAddrs[elected]
		rejoin.JoinRetry = max(cfg.JoinRetry, tr.timeout)
		old := tr
		tr = nil
		old.Close()
		if tr, err = joinNetRetry(part.N, rejoin); err != nil {
			return Result[R]{}, fmt.Errorf("dist: rejoining elected coordinator (shard %d at %s): %w", elected, rejoin.Join, err)
		}
	}
}

// adoptAndRun finishes a run as the elected coordinator: materialize
// partition 0, turn the peer listener into the fleet's hub
// (adoptCoordinator), ask the host to respawn the shard this process
// vacates, and run the normal coordinator loop — which re-broadcasts
// the stashed job header and checkpoint, so the re-formed fleet
// replays deterministically and the output is bit-identical to a
// failure-free run.
func adoptAndRun[R any](e *Engine, old *NetTransport, job Job[R]) (Result[R], error) {
	cfg := e.spec.worker
	vacated := old.self
	if cfg.Respawn == nil {
		old.Close()
		return Result[R]{}, fmt.Errorf("dist: shard %d elected coordinator but has no Respawn hook to refill its vacated shard", vacated)
	}
	var part *graph.Partition
	var err error
	switch {
	case cfg.LoadPartition != nil:
		part, err = cfg.LoadPartition(0)
	case e.g != nil:
		part = graph.PartitionOf(e.g, 0, cfg.Shards)
	default:
		err = fmt.Errorf("dist: shard %d elected coordinator but has neither LoadPartition nor a full graph to materialize partition 0", vacated)
	}
	if err != nil {
		old.Close()
		return Result[R]{}, err
	}
	tr, err := adoptCoordinator(old)
	if err != nil {
		old.Close()
		return Result[R]{}, err
	}
	defer tr.Close()
	cfg.Respawn(vacated, tr.Addr())
	ck := tr.lastCkpt
	if ck == nil {
		ck = &ckptState{}
	}
	ck.every = cfg.CheckpointEvery
	return runCoordinatorLoop(tr, part, job, ck, cfg.Respawn, cfg.MaxRespawns)
}

// joinNetRetry dials cfg.Join, retrying refused or failed joins for up
// to cfg.JoinRetry — how a respawned (or -resume) worker rejoins a
// coordinator that is still tearing down its predecessor, and how a
// failover survivor reaches an elected coordinator that is still
// adopting.
func joinNetRetry(n int, cfg WorkerConfig) (*NetTransport, error) {
	deadline := time.Now().Add(cfg.JoinRetry)
	for {
		tr, err := joinNet(n, cfg)
		if err == nil || !time.Now().Before(deadline) {
			return tr, err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// runMesh runs the Mesh spec as an in-process fleet on the drivers of
// a real multi-process run: a Net coordinator on loopback whose
// OnListen starts p−1 goroutines, each running a Worker spec on its
// own partition view. A worker that fails reports its error; one that
// is still waiting on the hub when the coordinator fails is unblocked
// by the coordinator's Close.
func runMesh[R any](e *Engine, job Job[R]) (Result[R], error) {
	if e.g == nil {
		return Result[R]{}, fmt.Errorf("dist: the %s spec needs a full graph (use NewEngine)", e.spec)
	}
	g, p, timeout := e.g, graph.ClampShards(e.g.N, e.spec.shards), e.spec.net.Timeout
	errs := make(chan error, p)
	started := 0
	coord := Net(NetConfig{Listen: "127.0.0.1:0", Shards: p, Timeout: timeout,
		OnListen: func(addr string) {
			for s := 1; s < p; s++ {
				started++
				go func(s int) {
					w := Worker(WorkerConfig{Join: addr, Shard: s, Shards: p, Timeout: timeout})
					if _, err := Run(NewPartitionEngine(w, graph.PartitionOf(g, s, p)), job); err != nil {
						errs <- fmt.Errorf("shard %d: %w", s, err)
						return
					}
					errs <- nil
				}(s)
			}
		}})
	res, err := runNetCoordinatorJob(NewEngine(coord, g), job)
	for ; started > 0; started-- {
		if werr := <-errs; err == nil {
			err = werr
		}
	}
	if err != nil {
		return Result[R]{}, err
	}
	return res, nil
}
