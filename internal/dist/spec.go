package dist

import (
	"fmt"
	"time"

	"repro/internal/graph"
)

// TransportSpec is a value describing how a job's rounds execute — the
// first of the two orthogonal axes of the package (the second is the
// Job, the algorithm itself). A spec carries no connections and does no
// I/O; Engine.Run materializes the transport it describes, runs the
// job, and tears it down. Five specs exist:
//
//   - Mem(): the single-process in-memory simulation (the default —
//     the zero TransportSpec is Mem()).
//   - Sharded(p): p worker goroutines, each billing what its shard
//     sends; the ledger splits out the cross-shard traffic.
//   - Mesh(p): an in-process Net + Worker fleet — a Net coordinator on
//     loopback TCP plus p−1 goroutines each running a Worker spec on
//     its own partition view, so it runs exactly the drivers of a real
//     multi-process run without process isolation.
//   - Net(cfg): the coordinator (shard 0) of a real multi-process run;
//     other processes join with Worker specs.
//   - Worker(cfg): one worker shard of a real multi-process run.
//
// Equivalence guarantee: for equal (job, seed) every spec produces
// bit-identical output and an identical Stats ledger at any shard
// count and any GOMAXPROCS — transports move messages, not decisions.
// Only the CrossShard split, WireBytes, and PeakViewWords (the honesty
// counters of distribution) vary. The cross-transport matrix in
// equivalence_test.go pins this.
type TransportSpec struct {
	kind   specKind
	shards int // Sharded and Mesh
	// net and worker are the configs of the Net and Worker specs, kept
	// whole; Mesh reads only net.Timeout (see WithTimeout).
	net    NetConfig
	worker WorkerConfig
}

type specKind uint8

const (
	specMem specKind = iota // the zero value: an unset spec is Mem()
	specSharded
	specMesh
	specNet
	specWorker
)

// Mem returns the in-memory spec: one process, one billing shard, the
// original synchronous simulation. Messages are billed, not moved. It
// is the zero TransportSpec.
func Mem() TransportSpec { return TransportSpec{} }

// Sharded returns the sharded in-process spec: the vertex set is
// partitioned across p worker goroutines (clamped to [1, n] at run
// time), and the ledger splits out the cross-shard messages that p
// processes would put on the wire. Messages are billed, not moved: the
// workers share one memory.
func Sharded(p int) TransportSpec { return TransportSpec{kind: specSharded, shards: p} }

// Mesh returns the loopback-TCP spec: Engine.Run runs a Net
// coordinator on 127.0.0.1 whose OnListen starts p−1 goroutines, each
// running a Worker spec on its own partition view, so the whole
// multi-process protocol (framing, direct worker↔worker links, the
// round barrier, collectives, result gather) runs inside one process.
// Round flushes run on per-link writer goroutines (double buffering:
// round r's batch is on the wire while round r+1 computes). Output,
// Stats, and the round schedule are bit-identical to every other spec;
// only WireBytes, DataWireBytes, and wall-clock change.
func Mesh(p int) TransportSpec { return TransportSpec{kind: specMesh, shards: p} }

// NetConfig configures the coordinator side of a real multi-process
// run (the Net spec).
type NetConfig struct {
	// Listen is the address to bind (host:port; port 0 picks one).
	Listen string
	// Shards is the total process count P, this coordinator included.
	Shards int
	// Timeout is the per-frame I/O deadline (DefaultNetTimeout if 0).
	Timeout time.Duration
	// OnListen, when non-nil, is called with the bound address after
	// the listener is up and before any worker is awaited — the hook
	// for writing an address file or spawning worker processes.
	OnListen func(addr string)
	// Respawn, when non-nil, arms fault tolerance: on a detected worker
	// failure the coordinator rolls the survivors back to the last
	// checkpoint, calls Respawn(shard, addr) to restart the dead shard
	// (typically by re-execing a worker process against its partition
	// file), waits for it to rejoin, and replays the attempt
	// deterministically — the final output is bit-identical to a
	// failure-free run. Nil keeps the pre-recovery behavior: any worker
	// failure fails the run.
	Respawn func(shard int, addr string)
	// MaxRespawns bounds the total number of worker respawns across the
	// whole run (0 means no budget — with a Respawn hook set, the first
	// failure still fails the run).
	MaxRespawns int
	// CheckpointEvery is the checkpoint cadence in epochs (sparsify
	// sampling iterations): the coordinator durably records the
	// inter-epoch state every CheckpointEvery completed epochs. 0 means
	// every epoch; < 0 disables checkpointing (recovery replays from
	// the top).
	CheckpointEvery int
	// Failover arms coordinator failover: every worker binds its peer
	// listener (WorkerConfig.PeerListen) even at P = 2 and announces it
	// at its join handshake, the coordinator broadcasts the peer address
	// book after the job header and checkpoint of every attempt, and if
	// this coordinator dies mid-run the lowest-numbered shard in the
	// book adopts shard 0 from the broadcast checkpoint (see
	// WorkerConfig.Failover). Every Worker spec in the fleet must set
	// Failover too (the hello handshake rejects a mix).
	Failover bool
	// FailAfterFrames, when positive, crashes this coordinator process
	// (SIGKILL to self) just before it writes its Nth protocol frame —
	// the fault-injection hook of the coordinator-kill drills. 0
	// disables injection.
	FailAfterFrames int
	// Resume, when non-nil, is an encoded checkpoint (as delivered to
	// OnCheckpoint) to restart the run from: every process fast-forwards
	// through the recorded epochs locally and resumes live execution.
	// Because replay is a pure function of (seed, partition, round), the
	// resumed run's OUTPUT is bit-identical to an uninterrupted one even
	// at a different shard count — the elastic-resize path: checkpoint a
	// P-shard fleet, restart at P′. (Stats' CrossShard split reflects
	// the partition actually run, so it differs across P ≠ P′.)
	Resume []byte
	// OnCheckpoint, when non-nil, is called with the encoded checkpoint
	// each time the durable boundary advances (every CheckpointEvery
	// completed epochs) — the hook for persisting restart state outside
	// the process (cmd/distworker -ckpt-out). The blob is immutable and
	// safe to retain.
	OnCheckpoint func(ckpt []byte)
}

// Net returns the coordinator spec of a real multi-process run:
// Engine.Run listens, waits for the P−1 Worker processes, broadcasts
// the job's name and parameters, runs shard 0, and assembles the
// result.
func Net(cfg NetConfig) TransportSpec {
	return TransportSpec{kind: specNet, net: cfg}
}

// WorkerConfig configures one worker shard of a real multi-process run
// (the Worker spec).
type WorkerConfig struct {
	// Join is the coordinator's address.
	Join string
	// Shard is this process's shard id in [1, Shards).
	Shard int
	// Shards is the total process count P.
	Shards int
	// Timeout is the per-frame I/O deadline (DefaultNetTimeout if 0).
	Timeout time.Duration
	// JoinRetry, when positive, keeps re-dialing a refused or failed
	// join for up to this window — how a respawned worker (or one
	// started with -resume before the coordinator) rejoins a
	// coordinator that is still recovering. 0 makes a single attempt.
	JoinRetry time.Duration
	// FailAfterFrames, when positive, crashes this worker process
	// (SIGKILL to self) just before it writes its Nth protocol frame —
	// the deterministic fault-injection hook the kill-and-recover tests
	// use. 0 disables injection.
	FailAfterFrames int
	// PeerListen is the address this worker's peer listener binds
	// ("127.0.0.1:0" if empty — set a routable host for multi-machine
	// runs). The listener is bound at P > 2 or when Failover is set:
	// the worker announces it to the coordinator, exchanges round
	// batches on it directly with the other workers, and, if elected
	// after a coordinator death, adopts it as the fleet's hub — so the
	// address must be reachable from every other worker.
	PeerListen string
	// Failover arms coordinator failover on this worker: it binds its
	// peer listener even at P = 2 and announces the address at the
	// handshake. If the coordinator dies mid-run, the lowest-numbered
	// shard in the last broadcast peer address book adopts shard 0 — it
	// loads partition 0 (LoadPartition), turns its peer listener into
	// the fleet's hub, re-broadcasts the job header and the last
	// checkpoint, respawns its own now-vacant shard (Respawn), and
	// finishes the run as the coordinator, returning the assembled
	// Output; every other survivor rejoins that address as its old
	// shard. Replay from the checkpoint is deterministic, so the output
	// and Stats are bit-identical to a failure-free run. Must match the
	// coordinator's NetConfig.Failover.
	Failover bool
	// LoadPartition, when non-nil, loads the partition for a given shard
	// — how an elected worker materializes partition 0 after adoption.
	// Optional when the engine holds the full graph (the partition is
	// carved); required for failover on a partition engine.
	LoadPartition func(shard int) (*graph.Partition, error)
	// Respawn restarts a dead worker shard, exactly as NetConfig.Respawn
	// — used by an elected worker after adoption, first to refill its
	// own vacated shard and then for any later worker failure. Failover
	// election fails without it.
	Respawn func(shard int, addr string)
	// MaxRespawns bounds the total worker respawns this process performs
	// after adopting the coordinator role (the adopted shard's own
	// refill is budgeted separately).
	MaxRespawns int
	// CheckpointEvery is the checkpoint cadence this worker applies if
	// it is elected coordinator (same semantics as the NetConfig field).
	CheckpointEvery int
}

// Worker returns the worker-shard spec of a real multi-process run:
// Engine.Run joins the coordinator, adopts the job parameters it
// broadcasts (the local job value supplies the algorithm and is
// cross-checked against the broadcast name), runs this shard, and
// contributes to the result gather. The returned Result carries the
// zero Output — assembly happens at the coordinator — but the full
// Stats ledger, identical on every process because each sums every
// shard's local round tallies.
func Worker(cfg WorkerConfig) TransportSpec {
	return TransportSpec{kind: specWorker, worker: cfg}
}

// WithTimeout returns a copy of the spec with the per-frame I/O
// deadline set (meaningful for Mesh, Net, and Worker specs).
func (s TransportSpec) WithTimeout(d time.Duration) TransportSpec {
	s.net.Timeout, s.worker.Timeout = d, d
	return s
}

// String renders the spec for logs and experiment tables.
func (s TransportSpec) String() string {
	switch s.kind {
	case specSharded:
		return fmt.Sprintf("sharded(%d)", s.shards)
	case specMesh:
		return fmt.Sprintf("mesh(%d)", s.shards)
	case specNet:
		return fmt.Sprintf("net(%s, %d shards%s)", s.net.Listen, s.net.Shards, failoverSuffix(s.net.Failover))
	case specWorker:
		return fmt.Sprintf("worker(%s, shard %d/%d%s)", s.worker.Join, s.worker.Shard, s.worker.Shards, failoverSuffix(s.worker.Failover))
	default:
		return "mem"
	}
}

// failoverSuffix renders the optional failover marker of the Net and
// Worker spec strings.
func failoverSuffix(failover bool) string {
	if failover {
		return ", failover"
	}
	return ""
}
