package dist

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// The coordinator-failover suite: shard 0 dies mid-run and the fleet
// survives — the lowest-numbered live shard adopts the coordinator
// role from the broadcast checkpoint, the vacated shard is respawned,
// and the finished output and ledger are bit-identical to a
// failure-free run. The OS-process kill -9 drill lives in
// cmd/distworker's tests; these cover the same machinery in-process,
// where fault injection severs the coordinator's sockets (what SIGKILL
// looks like from the outside: every unflushed frame is lost).

// coordinatorCrashDrill runs one fleet with a doomed coordinator: the
// coordinator transport is driven manually with fault injection that
// severs every socket at a fixed frame count, while the workers run
// the real public engine path with failover armed. Exactly one worker
// (the elected lowest shard) must finish holding the assembled output.
func coordinatorCrashDrill(t *testing.T, p int) {
	g := gen.Gnp(400, 0.05, 7)
	job := recoverySparsifyJob()
	ref, err := Run(NewEngine(Mesh(p).WithTimeout(recoveryTimeout), g), job)
	if err != nil {
		t.Fatal(err)
	}

	addrCh := make(chan string, 1)
	coordErr := make(chan error, 1)
	go func() {
		coordErr <- func() (err error) {
			defer recoverNetError(&err)
			tr, err := listenNet(g.N, NetConfig{Listen: "127.0.0.1:0", Shards: p,
				Timeout: recoveryTimeout, Failover: true})
			if err != nil {
				return err
			}
			defer tr.Close()
			addrCh <- tr.Addr()
			// Die mid-run, well after the first peer-book broadcast:
			// sever every socket before writing frame 400 — what SIGKILL
			// looks like to the fleet (in-flight frames are lost, nothing
			// is flushed on the way down).
			tr.failAfterFrames = 400
			tr.failAct = func() {
				for _, pc := range tr.peers {
					if pc != nil {
						pc.c.Close()
					}
				}
				tr.ln.Close()
			}
			_, err = runNetJob(tr, graph.PartitionOf(g, 0, p), job, &ckptState{every: 1})
			return err
		}()
	}()
	addr := <-addrCh

	var respawns atomic.Int32
	var wg sync.WaitGroup
	var mu sync.Mutex
	var finished []Result[*graph.Graph]
	record := func(res Result[*graph.Graph]) {
		mu.Lock()
		finished = append(finished, res)
		mu.Unlock()
	}
	var respawn func(shard int, addr string)
	workerCfg := func(shard int, join string) WorkerConfig {
		return WorkerConfig{Join: join, Shard: shard, Shards: p,
			Timeout: recoveryTimeout, JoinRetry: recoveryTimeout,
			Failover: true, CheckpointEvery: 1, MaxRespawns: 2, Respawn: respawn}
	}
	respawn = func(shard int, addr string) {
		respawns.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Run(NewEngine(Worker(workerCfg(shard, addr)), g), job)
			if err != nil {
				t.Errorf("respawned shard %d: %v", shard, err)
				return
			}
			record(res)
		}()
	}
	for s := 1; s < p; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			res, err := Run(NewEngine(Worker(workerCfg(s, addr)), g), job)
			if err != nil {
				t.Errorf("worker shard %d: %v", s, err)
				return
			}
			record(res)
		}(s)
	}

	if err := <-coordErr; err == nil {
		t.Fatal("doomed coordinator finished cleanly; fault injection never fired")
	}
	wg.Wait()
	if n := respawns.Load(); n != 1 {
		t.Fatalf("respawns=%d, want 1 (the elected shard refilling its vacated slot)", n)
	}
	var elected []Result[*graph.Graph]
	for _, r := range finished {
		if r.Output != nil {
			elected = append(elected, r)
		}
	}
	if len(elected) != 1 {
		t.Fatalf("%d finishers hold the assembled output, want exactly 1 (the elected coordinator)", len(elected))
	}
	res := elected[0]
	if !reflect.DeepEqual(res.Stats, ref.Stats) {
		t.Fatalf("failed-over ledger diverges:\n%+v\nvs failure-free\n%+v", res.Stats, ref.Stats)
	}
	if res.Output.M() != ref.Output.M() {
		t.Fatalf("failed-over m=%d vs failure-free %d", res.Output.M(), ref.Output.M())
	}
	for i := range ref.Output.Edges {
		if res.Output.Edges[i] != ref.Output.Edges[i] {
			t.Fatalf("failed-over edge %d differs from the failure-free run", i)
		}
	}
}

// TestTwoShardRunSurvivesCoordinatorCrash runs the drill at P = 2,
// where no worker has a direct peer: the only worker binds its peer
// listener for failover alone, is elected, adopts that listener as the
// hub, and finishes the run beside its own respawned shard.
func TestTwoShardRunSurvivesCoordinatorCrash(t *testing.T) {
	coordinatorCrashDrill(t, 2)
}

// TestNetRunSurvivesCoordinatorCrash is the coordinator-failover
// ground truth: kill the coordinator mid-run, shard 1 is elected and
// adopts shard 0 from the broadcast checkpoint, shard 2 rejoins at
// shard 1's peer listener, the vacated shard 1 is respawned, the
// survivors' direct links unwind with the dead hub and the re-formed
// fleet rebuilds the mesh from the new coordinator's re-broadcast
// address book — and the output and ledger are bit-identical to a
// failure-free run.
func TestNetRunSurvivesCoordinatorCrash(t *testing.T) {
	coordinatorCrashDrill(t, 3)
}

// TestMeshRunSurvivesCoordinatorCrash runs the same drill at P = 4,
// where the re-formed fleet holds a direct link between two survivors:
// shards 2 and 3 each unwind their old 2↔3 link with the dead hub,
// rejoin the elected shard 1, and dial each other afresh from its
// re-broadcast address book beside the respawned shard 1's links.
func TestMeshRunSurvivesCoordinatorCrash(t *testing.T) {
	coordinatorCrashDrill(t, 4)
}

// TestNetRunElasticResizeBitIdentical pins the elastic-restart
// guarantee: checkpoint a P=3 fleet (NetConfig.OnCheckpoint), restart
// from the blob on a P′=2 fleet (NetConfig.Resume), and the resumed
// run's OUTPUT is bit-identical to both the original and the
// in-process reference. (Stats is intentionally not compared across
// shard counts: the CrossShard split reflects the partition actually
// run.)
func TestNetRunElasticResizeBitIdentical(t *testing.T) {
	g := gen.Gnp(400, 0.05, 7)
	job := recoverySparsifyJob()
	ref, err := Run(NewEngine(Mem(), g), job)
	if err != nil {
		t.Fatal(err)
	}

	runFleet := func(shards int, resume []byte, onCkpt func([]byte)) Result[*graph.Graph] {
		t.Helper()
		addrCh := make(chan string, 1)
		var wg sync.WaitGroup
		spec := Net(NetConfig{Listen: "127.0.0.1:0", Shards: shards,
			Timeout: recoveryTimeout, CheckpointEvery: 1,
			OnListen: func(addr string) { addrCh <- addr },
			Resume:   resume, OnCheckpoint: onCkpt})
		go func() {
			addr := <-addrCh
			for s := 1; s < shards; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					wspec := Worker(WorkerConfig{Join: addr, Shard: s, Shards: shards,
						Timeout: recoveryTimeout})
					if _, err := Run(NewEngine(wspec, g), job); err != nil {
						t.Errorf("shard %d/%d: %v", s, shards, err)
					}
				}(s)
			}
		}()
		res, err := Run(NewEngine(spec, g), job)
		if err != nil {
			t.Fatalf("%d-shard fleet: %v", shards, err)
		}
		wg.Wait()
		return res
	}

	var mu sync.Mutex
	var blobs [][]byte
	res3 := runFleet(3, nil, func(ck []byte) {
		mu.Lock()
		blobs = append(blobs, ck)
		mu.Unlock()
	})
	if len(blobs) == 0 {
		t.Fatal("no checkpoint was delivered to OnCheckpoint")
	}
	res2 := runFleet(2, blobs[0], nil)

	for name, res := range map[string]Result[*graph.Graph]{"P=3": res3, "resumed P'=2": res2} {
		if res.Output.M() != ref.Output.M() {
			t.Fatalf("%s output m=%d vs reference %d", name, res.Output.M(), ref.Output.M())
		}
		for i := range ref.Output.Edges {
			if res.Output.Edges[i] != ref.Output.Edges[i] {
				t.Fatalf("%s output edge %d differs from the reference", name, i)
			}
		}
	}
}

// TestFailoverHandshakeRejectsMixedFleet: a failover-armed worker
// cannot join a failover-less coordinator — the capability flags of
// the hello/welcome handshake must match exactly, so a misconfigured
// fleet fails loudly at bring-up instead of desynchronizing on the
// peer-address frame a failover worker announces even at P = 2.
func TestFailoverHandshakeRejectsMixedFleet(t *testing.T) {
	coord, err := listenNet(10, NetConfig{Listen: "127.0.0.1:0", Shards: 2, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	// WaitReady rejects the mismatched join and keeps accepting; closing
	// its listener ends the window, and waiting for it keeps the join
	// window and the deferred Close off the transport at the same time.
	waited := make(chan error, 1)
	go func() { waited <- coord.WaitReady() }()
	defer func() { coord.ln.Close(); <-waited }()
	_, err = joinNet(10, WorkerConfig{Join: coord.Addr(), Shard: 1, Shards: 2, Timeout: 2 * time.Second, Failover: true})
	if err == nil {
		t.Fatal("failover-armed worker joined a failover-less coordinator")
	}
	if !strings.Contains(err.Error(), "capability") {
		t.Fatalf("mismatch error does not name the capability handshake: %v", err)
	}
}

// TestIsConnLoss pins the failure classification the election hinges
// on: connection loss (EOF, transport-fatal wrapped I/O errors)
// triggers failover; logic and protocol errors never do — electing a
// new coordinator would just replay them.
func TestIsConnLoss(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{io.EOF, true},
		{io.ErrUnexpectedEOF, true},
		{fmt.Errorf("dist: worker shard 2 failed: %w", io.EOF), true},
		{&NetError{Err: io.EOF}, true},
		{&NetError{Err: fmt.Errorf("mesh data plane: %w", io.ErrUnexpectedEOF)}, true},
		{fmt.Errorf("dist: bad frame magic 0xdead"), false},
		{&NetError{Err: fmt.Errorf("dist: checksum mismatch")}, false},
	}
	for _, c := range cases {
		if got := isConnLoss(c.err); got != c.want {
			t.Errorf("isConnLoss(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestElectedShard pins the election function: the lowest-numbered
// shard with an address in the peer book wins; an empty or missing
// book elects nobody.
func TestElectedShard(t *testing.T) {
	tr := &NetTransport{}
	if got := tr.electedShard(); got != -1 {
		t.Fatalf("no book elected shard %d, want -1", got)
	}
	tr.meshAddrs = []string{"", "", "127.0.0.1:2", "127.0.0.1:3"}
	if got := tr.electedShard(); got != 2 {
		t.Fatalf("elected shard %d, want 2 (lowest with a peer address)", got)
	}
}
