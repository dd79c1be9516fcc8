// Command distworker runs a distributed job as real multi-process
// workers over TCP: one coordinator (shard 0) plus shards−1 workers,
// each process materializing only its shard's adjacency plus boundary
// edges and exchanging round traffic through the bulk-synchronous
// network transport. The job is resolved by name through the dist
// package's registry (-job, default sparsify); the coordinator
// broadcasts the job's parameters, so workers adopt the exact same run
// and only the partition is local.
//
// Coordinator (owns shard 0, assembles and writes the output):
//
//	distworker -listen 127.0.0.1:9000 -shards 4 -in graph.txt \
//	    -job sparsify -eps 0.5 -rho 8 -seed 1 [-out sparse.txt]
//
// Worker (joins the coordinator; job parameters are adopted from the
// coordinator's broadcast and cross-checked against -job):
//
//	distworker -join 127.0.0.1:9000 -shards 4 -shard 2 -in graph.txt
//
// Pre-splitting: with -split DIR the coordinator writes one partition
// file per shard before listening, and any process started with
// -parts DIR loads its partition file instead of parsing the whole
// graph — the partition-aware loading path:
//
//	distworker -shards 4 -in graph.txt -split parts/ -split-only
//	distworker -join HOST:PORT -shards 4 -shard 2 -parts parts/
//
// Data plane: with more than two shards the workers dial each other
// directly and exchange round batches peer-to-peer (a full mesh), so
// cross-shard data crosses the wire once, and round flushes overlap
// the next round's compute (double buffering). Every worker binds a
// peer listener (-peer-listen, default 127.0.0.1:0) and announces it
// to the coordinator at join time — with more than two shards, or at
// any shard count with -failover, where the same listener is the
// worker's standby hub — so on a multi-machine fleet every worker
// needs a -peer-listen host the other workers can reach:
//
//	distworker -listen :9000 -shards 4 -in graph.txt
//	distworker -join HOST:9000 -shards 4 -shard 2 \
//	    -peer-listen 10.0.0.7:0 -in graph.txt
//
// Fault tolerance: with -max-respawns N the coordinator survives up to
// N worker deaths — on a detected failure (EOF, reset, or a missed
// heartbeat window) it rolls the surviving workers back, re-execs this
// binary as a replacement for the dead shard (loading the same
// partition source, joining with -resume), and replays the run from
// its last checkpoint (-checkpoint-every). Every round is a pure
// function of (seed, partition, round number), so the recovered output
// is bit-identical to a failure-free run — kill -9 a worker mid-run
// and the written result does not change. -crash-after-frames is the
// matching fault-injection hook the recovery tests use.
//
// Coordinator failover: with -failover on EVERY process (the handshake
// rejects a mixed fleet) the COORDINATOR is no longer a single point
// of failure. Each worker's peer listener (-peer-listen) doubles as
// its standby hub, so it is bound and announced even at 2 shards and
// must be routable; the coordinator broadcasts the peer address book
// after each job header and checkpoint. Kill -9 the coordinator
// mid-run and the lowest-numbered shard in the book adopts shard 0: it
// loads partition 0, turns its peer listener into the hub, re-execs
// this binary to refill its vacated shard, replays from the broadcast
// checkpoint, and writes the assembled output to ITS -out — still
// bit-identical to a failure-free run. Failover workers therefore take
// -out, -max-respawns, and -checkpoint-every too:
//
//	distworker -join HOST:9000 -shards 4 -shard 2 -parts parts/ \
//	    -failover -max-respawns 2 -checkpoint-every 1 -out sparse.txt
//
// Elastic resize: -ckpt-out FILE makes the coordinator persist each
// durable checkpoint atomically; -resume-ckpt FILE restarts a run from
// such a checkpoint — at ANY shard count, because replay is
// partition-independent. The resumed run's output is bit-identical to
// an uninterrupted one:
//
//	distworker -listen :9000 -shards 4 -in g.txt -ckpt-out run.ckpt
//	distworker -listen :9000 -shards 3 -in g.txt -resume-ckpt run.ckpt
//
// For equal seeds the written output is edge-identical to the
// in-process transport specs at any shard count, and the reported
// ledger is identical on every process.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/netutil"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("distworker: ")
	in := flag.String("in", "", "input edge-list file (whole graph)")
	parts := flag.String("parts", "", "partition directory (load only this shard's file)")
	out := flag.String("out", "", "coordinator output edge-list file (default stdout)")
	listen := flag.String("listen", "", "coordinator mode: listen address (host:port)")
	join := flag.String("join", "", "worker mode: coordinator address to join")
	shards := flag.Int("shards", 0, "total shard count P (required)")
	shard := flag.Int("shard", 0, "this worker's shard id in [1,P) (worker mode)")
	jobName := flag.String("job", "sparsify", "job to run, one of: "+strings.Join(dist.JobNames(), ", "))
	eps := flag.Float64("eps", 0.5, "target spectral accuracy in (0,1] (job=sparsify, coordinator)")
	rho := flag.Float64("rho", 8, "edge reduction factor (job=sparsify, coordinator)")
	depth := flag.Int("depth", 0, "bundle depth override, 0 = calibrated default (job=sparsify, coordinator)")
	k := flag.Int("k", 0, "spanner level count, 0 = ceil(log2 n) (job=spanner, coordinator)")
	seed := flag.Uint64("seed", 1, "random seed (coordinator)")
	split := flag.String("split", "", "write all shards' partition files into this directory")
	splitOnly := flag.Bool("split-only", false, "with -split: write partitions and exit")
	addrFile := flag.String("addr-file", "", "coordinator: write the bound listen address to this file (atomically)")
	timeout := flag.Duration("timeout", dist.DefaultNetTimeout, "per-frame network deadline")
	maxRespawns := flag.Int("max-respawns", 0, "coordinator: survive up to this many worker deaths by respawning them (0 = a worker death fails the run)")
	ckptEvery := flag.Int("checkpoint-every", 0, "coordinator: checkpoint cadence in sampling epochs (0 = every epoch, negative = off)")
	resume := flag.Bool("resume", false, "worker: keep retrying the join for one -timeout window (for respawned workers racing the coordinator's recovery)")
	crashAfterFrames := flag.Int("crash-after-frames", 0, "fault injection — SIGKILL this process before its Nth protocol frame (0 = off)")
	peerListen := flag.String("peer-listen", "", "worker: peer listener bind address for the direct worker links and, with -failover, the standby hub (default 127.0.0.1:0; use a routable host:0 for multi-machine runs)")
	failover := flag.Bool("failover", false, "coordinator failover: survive coordinator death by electing a worker to adopt shard 0 (must be set on every process)")
	ckptOut := flag.String("ckpt-out", "", "coordinator: persist each durable checkpoint to this file (atomically) for later -resume-ckpt")
	resumeCkpt := flag.String("resume-ckpt", "", "coordinator: restart the run from this checkpoint file (any -shards works; output is bit-identical)")
	flag.Parse()

	if *shards < 1 {
		log.Fatal("-shards is required (≥ 1)")
	}
	// Validate every address-shaped flag up front, so a typo is a clear
	// flag error instead of a raw dial/listen failure mid-bring-up (or,
	// worse, an undialable peer address some OTHER worker trips over).
	if *listen != "" {
		validateHostPort("-listen", *listen, false)
	}
	if *join != "" {
		validateHostPort("-join", *join, true)
	}
	if *peerListen != "" {
		validateHostPort("-peer-listen", *peerListen, true)
	}
	if *addrFile != "" {
		if err := netutil.ValidateParentDir("-addr-file", *addrFile); err != nil {
			log.Fatal(err)
		}
	}
	runner, ok := jobRunners[*jobName]
	if !ok {
		log.Fatalf("unknown -job %q; registered jobs: %s", *jobName, strings.Join(dist.JobNames(), ", "))
	}
	params := jobParams{eps: *eps, rho: *rho, depth: *depth, k: *k, seed: *seed}
	switch {
	case *split != "" && *splitOnly:
		g := readGraph(*in)
		splitPartitions(g, *shards, *split)
	case *listen != "":
		runCoordinator(runner, params, *jobName, *in, *parts, *out, *listen, *addrFile, *split,
			*shards, *timeout, *maxRespawns, *ckptEvery, *failover,
			*crashAfterFrames, *ckptOut, *resumeCkpt)
	case *join != "":
		runWorker(runner, params, *jobName, *in, *parts, *out, *join, *shard, *shards, *timeout, *resume,
			*crashAfterFrames, *peerListen, *failover, *maxRespawns, *ckptEvery)
	default:
		log.Fatal("one of -listen (coordinator), -join (worker), or -split/-split-only is required")
	}
}

// jobParams carries the job-specific CLI parameters; workers pass them
// too but the values a worker actually runs are adopted from the
// coordinator's broadcast.
type jobParams struct {
	eps, rho float64
	depth    int
	k        int
	seed     uint64
}

// jobRunner runs one registered job on an engine and returns the
// writable output graph (nil on workers, which contribute to the
// coordinator's gather instead) plus the run's ledger and wire bytes.
type jobRunner func(eng *dist.Engine, p jobParams) (*graph.Graph, dist.Stats, int64, error)

// jobRunners is the CLI face of the dist package's job registry: one
// entry per registered job name, each running its typed Job through
// the single dist.Run entry point.
var jobRunners = map[string]jobRunner{
	"sparsify": func(eng *dist.Engine, p jobParams) (*graph.Graph, dist.Stats, int64, error) {
		res, err := dist.Run(eng, dist.SparsifyJob(p.eps, p.rho, dist.SparsifyDefaults(p.depth, p.seed)))
		return res.Output, res.Stats, res.WireBytes, err
	},
	"spanner": func(eng *dist.Engine, p jobParams) (*graph.Graph, dist.Stats, int64, error) {
		res, err := dist.Run(eng, dist.SpannerJob(p.k, p.seed))
		var g *graph.Graph
		if res.Output != nil {
			g = res.Output.G
		}
		return g, res.Stats, res.WireBytes, err
	},
}

// validateHostPort rejects a malformed address flag before any socket
// work (netutil.ValidateHostPort, shared with cmd/sparsifyd), with the
// flag's name in the message. needHost additionally requires a
// non-empty host part: a worker must dial -join somewhere, and a
// -peer-listen host is what the OTHER workers dial — binding every
// interface (":0") would announce an undialable address.
func validateHostPort(flagName, addr string, needHost bool) {
	if err := netutil.ValidateHostPort(flagName, addr, needHost); err != nil {
		log.Fatal(err)
	}
}

func readGraph(in string) *graph.Graph {
	if in == "" {
		log.Fatal("-in is required to read the whole graph")
	}
	f, err := os.Open(in)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	g, err := graphio.Read(f)
	if err != nil {
		log.Fatal(err)
	}
	return g
}

// loadPartition materializes this process's slice of the graph: from
// its partition file when a partition directory is given (the
// partition-aware path — nothing else is read), else by carving the
// whole input graph in memory. Any disagreement between -shards and
// the partition source is a clear error, never a panic.
func loadPartition(in, parts string, shard, shards int) *graph.Partition {
	if parts != "" {
		path := filepath.Join(parts, graphio.PartitionFileName(shard, shards))
		f, err := os.Open(path)
		if err != nil {
			if os.IsNotExist(err) {
				log.Fatalf("%v (was %s split with a different -shards than %d?)", err, parts, shards)
			}
			log.Fatal(err)
		}
		defer f.Close()
		p, err := graphio.ReadPartition(f)
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		if p.Shard != shard || p.Shards != shards {
			log.Fatalf("%s holds shard %d of %d, but this process was started as shard %d of %d",
				path, p.Shard, p.Shards, shard, shards)
		}
		return p
	}
	g := readGraph(in)
	if clamped := graph.ClampShards(g.N, shards); clamped != shards {
		log.Fatalf("-shards %d invalid for the %d-vertex input graph (at most %d)", shards, g.N, clamped)
	}
	return graph.PartitionOf(g, shard, shards)
}

// writeFileAtomic writes data to path via a temp file plus rename
// (netutil.AtomicWriteFile), so a racing reader — a coordinator-waiting
// script polling -addr-file — never observes a half-written file.
func writeFileAtomic(path string, data []byte) error {
	return netutil.AtomicWriteFile(path, data)
}

func splitPartitions(g *graph.Graph, shards int, dir string) {
	if clamped := graph.ClampShards(g.N, shards); clamped != shards {
		log.Fatalf("-shards %d invalid for the %d-vertex input graph (at most %d)", shards, g.N, clamped)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for s := 0; s < shards; s++ {
		p := graph.PartitionOf(g, s, shards)
		path := filepath.Join(dir, graphio.PartitionFileName(s, shards))
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := graphio.WritePartition(f, p); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d incident edges)\n", path, len(p.IDs))
	}
}

// respawnWorker re-execs this binary as a replacement worker for a
// dead shard: same partition source, same job, joining the coordinator
// with -resume so it keeps retrying while recovery tears the old
// connection down. The child is started asynchronously; the engine's
// recovery window tracks the rejoin.
func respawnWorker(jobName, in, parts string, shards int, timeout time.Duration, failover bool) func(shard int, addr string) {
	return func(shard int, addr string) {
		fmt.Fprintf(os.Stderr, "coordinator: respawning shard %d\n", shard)
		args := []string{
			"-join", addr, "-shard", strconv.Itoa(shard), "-shards", strconv.Itoa(shards),
			"-job", jobName, "-timeout", timeout.String(), "-resume",
		}
		if failover {
			// The replacement must match the fleet's capability set; it
			// binds a fresh peer listener and announces it as it rejoins.
			args = append(args, "-failover")
		}
		if parts != "" {
			args = append(args, "-parts", parts)
		} else {
			args = append(args, "-in", in)
		}
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stdout = os.Stderr // a worker writes no graph; keep its logs off our stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatalf("respawning shard %d: %v", shard, err)
		}
		go func() { _ = cmd.Wait() }() // reap
	}
}

func runCoordinator(runner jobRunner, params jobParams,
	jobName, in, parts, out, listen, addrFile, split string, shards int,
	timeout time.Duration, maxRespawns, ckptEvery int, failover bool,
	crashAfterFrames int, ckptOut, resumeCkpt string) {
	var part *graph.Partition
	if split != "" {
		// Splitting needs the whole graph anyway; carve shard 0 from it.
		g := readGraph(in)
		splitPartitions(g, shards, split)
		part = graph.PartitionOf(g, 0, shards)
	} else {
		part = loadPartition(in, parts, 0, shards)
	}
	cfg := dist.NetConfig{
		Listen: listen, Shards: shards, Timeout: timeout,
		OnListen: func(addr string) {
			fmt.Fprintf(os.Stderr, "coordinator: shard 0/%d listening on %s (n=%d m=%d, %d incident edges)\n",
				shards, addr, part.N, part.M, len(part.IDs))
			if addrFile != "" {
				if err := writeFileAtomic(addrFile, []byte(addr)); err != nil {
					log.Fatal(err)
				}
			}
		},
		MaxRespawns:     maxRespawns,
		CheckpointEvery: ckptEvery,
		Failover:        failover,
		FailAfterFrames: crashAfterFrames,
	}
	if ckptOut != "" {
		cfg.OnCheckpoint = func(ckpt []byte) {
			if err := writeFileAtomic(ckptOut, ckpt); err != nil {
				log.Fatalf("writing -ckpt-out %s: %v", ckptOut, err)
			}
		}
	}
	if resumeCkpt != "" {
		blob, err := os.ReadFile(resumeCkpt)
		if err != nil {
			log.Fatalf("reading -resume-ckpt: %v", err)
		}
		cfg.Resume = blob
	}
	if maxRespawns > 0 {
		// Respawned workers reload their shard from the same source:
		// the partition directory (pre-split or just written by -split),
		// else the whole input graph.
		partsSrc := parts
		if partsSrc == "" {
			partsSrc = split
		}
		cfg.Respawn = respawnWorker(jobName, in, partsSrc, shards, timeout, failover)
	}
	spec := dist.Net(cfg)
	start := time.Now()
	g, stats, wireBytes, err := runner(dist.NewPartitionEngine(spec, part), params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "done in %v: n=%d m=%d -> m=%d\n",
		time.Since(start).Round(time.Millisecond), part.N, part.M, g.M())
	fmt.Fprintf(os.Stderr, "ledger: %s\n", stats)
	fmt.Fprintf(os.Stderr, "wire: %d bytes across %d processes (model cross-shard: %d words)\n",
		wireBytes, shards, stats.CrossShardWords)
	writeOutput(out, g)
}

// writeOutput writes the assembled graph to the -out file, or to
// stdout when -out is empty.
func writeOutput(out string, g *graph.Graph) {
	f := os.Stdout
	if out != "" {
		var err error
		if f, err = os.Create(out); err != nil {
			log.Fatal(err)
		}
	}
	if err := graphio.Write(f, g); err != nil {
		log.Fatal(err)
	}
	if out != "" {
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
}

func runWorker(runner jobRunner, params jobParams,
	jobName, in, parts, out, join string, shard, shards int, timeout time.Duration, resume bool,
	crashAfterFrames int, peerListen string, failover bool, maxRespawns, ckptEvery int) {
	if shard < 1 || shard >= shards {
		log.Fatalf("-shard must be in [1,%d)", shards)
	}
	part := loadPartition(in, parts, shard, shards)
	wcfg := dist.WorkerConfig{Join: join, Shard: shard, Shards: shards, Timeout: timeout,
		FailAfterFrames: crashAfterFrames, PeerListen: peerListen}
	if resume {
		wcfg.JoinRetry = timeout
	}
	if failover {
		wcfg.Failover = true
		wcfg.MaxRespawns = maxRespawns
		wcfg.CheckpointEvery = ckptEvery
		wcfg.LoadPartition = func(s int) (*graph.Partition, error) {
			return loadPartition(in, parts, s, shards), nil
		}
		wcfg.Respawn = respawnWorker(jobName, in, parts, shards, timeout, failover)
	}
	spec := dist.Worker(wcfg)
	fmt.Fprintf(os.Stderr, "worker: shard %d/%d joining %s (%d incident edges, vertices [%d,%d))\n",
		shard, shards, join, len(part.IDs), part.Lo, part.Hi)
	g, stats, wireBytes, err := runner(dist.NewPartitionEngine(spec, part), params)
	if err != nil {
		log.Fatal(err)
	}
	if g != nil {
		// This worker was elected coordinator after a failover and holds
		// the assembled output; write it exactly as a born coordinator
		// would.
		fmt.Fprintf(os.Stderr, "worker %d finished as elected coordinator: n=%d m=%d -> m=%d (wire: %d bytes)\n",
			shard, part.N, part.M, g.M(), wireBytes)
		writeOutput(out, g)
	}
	fmt.Fprintf(os.Stderr, "worker %d done; ledger: %s\n", shard, stats)
}
