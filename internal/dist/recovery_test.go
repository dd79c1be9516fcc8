package dist

import (
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// The failure-path suite of the net transport: worker death and
// recovery (heartbeats, rollback, checkpointed replay), fast failure
// detection, duplicate rejoins, stream checksums, stray connections,
// the sliding join deadline, and collective sequence validation. The
// OS-process kill -9 drill lives in cmd/distworker's tests; these
// cover the same machinery in-process, where fault injection can close
// a single connection instead of a whole process.

const recoveryTimeout = 20 * time.Second

func recoverySparsifyJob() Job[*graph.Graph] {
	return SparsifyJob(0.75, 4, SparsifyDefaults(0, 11))
}

// doomWorker joins the fleet as `shard` and runs the job with fault
// injection armed: after failFrames written frames the worker's hub
// connection is torn down, which is what a crashed process looks like
// to the coordinator. Returns the run error (expected non-nil: the
// worker dies mid-run).
func doomWorker(t *testing.T, addr string, g *graph.Graph, shard, p, failFrames int) error {
	t.Helper()
	tr, err := joinNet(g.N, WorkerConfig{Join: addr, Shard: shard, Shards: p, Timeout: recoveryTimeout})
	if err != nil {
		return err
	}
	tr.failAfterFrames = failFrames
	tr.failAct = func() { tr.links[0].c.Close() }
	defer tr.Close()
	_, err = runNetJob(tr, graph.PartitionOf(g, shard, p), recoverySparsifyJob(), nil)
	return err
}

// crashFixture is what a crash drill compares against: the drill
// graph, the fleet size, and the failure-free Mesh(p) result, computed
// once per test however many crash points the test runs.
type crashFixture struct {
	g   *graph.Graph
	p   int
	ref Result[*graph.Graph]
}

func newCrashFixture(t *testing.T, p int) crashFixture {
	t.Helper()
	g := gen.Gnp(400, 0.05, 7)
	ref, err := Run(NewEngine(Mesh(p).WithTimeout(recoveryTimeout), g), recoverySparsifyJob())
	if err != nil {
		t.Fatal(err)
	}
	return crashFixture{g: g, p: p, ref: ref}
}

// check fails the test unless a recovered run's output and ledger are
// bit-identical to the failure-free run's.
func (fx crashFixture) check(t *testing.T, res Result[*graph.Graph]) {
	t.Helper()
	if !reflect.DeepEqual(res.Stats, fx.ref.Stats) {
		t.Fatalf("recovered ledger diverges:\n%+v\nvs failure-free\n%+v", res.Stats, fx.ref.Stats)
	}
	if res.Output.M() != fx.ref.Output.M() {
		t.Fatalf("recovered m=%d vs failure-free %d", res.Output.M(), fx.ref.Output.M())
	}
	for i := range fx.ref.Output.Edges {
		if res.Output.Edges[i] != fx.ref.Output.Edges[i] {
			t.Fatalf("recovered edge %d differs from the failure-free run", i)
		}
	}
}

// workerCrashDrill is the worker-recovery ground truth: shard doomed
// dies after failFrames written frames, once the mesh is up; the
// coordinator rolls the survivors back (which unwinds their direct
// links: EOF on a mesh read, park on the hub, pick up the rollback),
// respawns the dead shard — which announces a fresh peer listener as
// it rejoins — and the next attempt rebuilds the mesh from the
// re-broadcast address book and replays from the last checkpoint. The
// final output and ledger are bit-identical to a failure-free run.
func workerCrashDrill(t *testing.T, fx crashFixture, doomed, failFrames int) {
	g, p := fx.g, fx.p
	var respawns atomic.Int32
	var wg sync.WaitGroup
	addrCh := make(chan string, 1)
	spec := Net(NetConfig{
		Listen: "127.0.0.1:0", Shards: p, Timeout: recoveryTimeout,
		OnListen: func(addr string) { addrCh <- addr },
		Respawn: func(shard int, addr string) {
			respawns.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				wspec := Worker(WorkerConfig{Join: addr, Shard: shard, Shards: p,
					Timeout: recoveryTimeout, JoinRetry: recoveryTimeout})
				if _, err := Run(NewEngine(wspec, g), recoverySparsifyJob()); err != nil {
					t.Errorf("respawned shard %d: %v", shard, err)
				}
			}()
		},
		MaxRespawns: 2, CheckpointEvery: 1,
	})
	go func() {
		addr := <-addrCh
		for s := 1; s < p; s++ {
			if s == doomed {
				continue
			}
			wg.Add(1)
			go func(s int) { // a healthy survivor, on the public path
				defer wg.Done()
				wspec := Worker(WorkerConfig{Join: addr, Shard: s, Shards: p, Timeout: recoveryTimeout})
				if _, err := Run(NewEngine(wspec, g), recoverySparsifyJob()); err != nil {
					t.Errorf("surviving shard %d: %v", s, err)
				}
			}(s)
		}
		wg.Add(1)
		go func() { // the doomed worker: dies mid-run
			defer wg.Done()
			if err := doomWorker(t, addr, g, doomed, p, failFrames); err == nil {
				t.Error("doomed worker finished cleanly; fault injection never fired")
			}
		}()
	}()

	res, err := Run(NewEngine(spec, g), recoverySparsifyJob())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if n := respawns.Load(); n != 1 {
		t.Fatalf("respawns=%d, want 1", n)
	}
	fx.check(t, res)
}

// TestNetRunSurvivesWorkerCrash: at P = 3 shard 1 dies at frame 900 of
// 2,245, taking its one direct link (to shard 2) down with it.
func TestNetRunSurvivesWorkerCrash(t *testing.T) {
	workerCrashDrill(t, newCrashFixture(t, 3), 1, 900)
}

// TestMeshRunSurvivesWorkerCrash: at P = 4 the doomed shard 2 sits in
// the middle of the dial order — it dialed shard 1 and was dialed by
// shard 3 — so survivors on both ends of its links unwind, and its
// replacement redials shard 1 while shard 3 redials the replacement's
// fresh listener.
func TestMeshRunSurvivesWorkerCrash(t *testing.T) {
	workerCrashDrill(t, newCrashFixture(t, 4), 2, 900)
}

// runFleet runs body once per shard of a P-shard fleet over loopback —
// the coordinator from listenNet, each worker from joinNet, each on its
// own goroutine — closes every transport, and returns the first error.
func runFleet(n, p int, timeout time.Duration, body func(tr *NetTransport) error) error {
	coord, err := listenNet(n, NetConfig{Listen: "127.0.0.1:0", Shards: p, Timeout: timeout})
	if err != nil {
		return err
	}
	errs := make(chan error, p-1)
	for s := 1; s < p; s++ {
		go func(s int) {
			tr, err := joinNet(n, WorkerConfig{Join: coord.Addr(), Shard: s, Shards: p, Timeout: timeout})
			if err == nil {
				err = body(tr)
				tr.Close()
			}
			errs <- err
		}(s)
	}
	err = body(coord)
	coord.Close() // unblocks workers still waiting on a failed coordinator
	for s := 1; s < p; s++ {
		if werr := <-errs; err == nil {
			err = werr
		}
	}
	return err
}

// framesWritten runs one failure-free fleet of fx.p processes, each
// counting the frames it writes from the point a crash drill arms it,
// and returns the counts by shard: the last frame at which a drill of
// that role can fire.
func (fx crashFixture) framesWritten(t *testing.T) []int {
	t.Helper()
	frames := make([]int, fx.p)
	err := runFleet(fx.g.N, fx.p, recoveryTimeout, func(tr *NetTransport) error {
		tr.failAfterFrames = math.MaxInt
		_, err := runNetJob(tr, graph.PartitionOf(fx.g, tr.Shard(), fx.p), recoverySparsifyJob(), nil)
		frames[tr.Shard()] = tr.framesWritten
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

// TestCrashPointSweep enumerates crash points instead of sampling
// them. At P = 3 it kills, in turn, worker shard 1, worker shard 2
// and the failover-armed coordinator at every 97th frame that role
// writes, from just after the first peer-book broadcast to the last
// frame of a failure-free run. 97 is coprime to the 6 frames a shard
// writes per round, so the points land on every frame slot of the
// barrier. Every run must finish bit-identical to the failure-free
// one.
func TestCrashPointSweep(t *testing.T) {
	const stride = 97
	fx := newCrashFixture(t, 3)
	ends := fx.framesWritten(t)
	t.Logf("a failure-free run writes %v frames by shard", ends)
	for _, doomed := range []int{1, 2} {
		// A worker writes nothing between its join and the book
		// broadcast, so its first frame already follows the book.
		for f := 1; f <= ends[doomed]; f += stride {
			t.Run(fmt.Sprintf("worker%d/frame=%d", doomed, f), func(t *testing.T) {
				workerCrashDrill(t, fx, doomed, f)
			})
		}
	}
	// The coordinator's first 4(p−1) frames are the join welcomes and
	// the header, checkpoint and book broadcasts. A crash before the
	// book reaches every worker leaves nothing to elect from (see
	// failover.go).
	for f := 4*(fx.p-1) + 1; f <= ends[0]; f += stride {
		t.Run(fmt.Sprintf("coordinator/frame=%d", f), func(t *testing.T) {
			coordinatorCrashDrill(t, fx, f)
		})
	}
}

// TestWorkerDisconnectFailsFast: without a respawn hook a worker death
// still fails the run promptly — via EOF on the dead connection, not a
// per-frame timeout cascade — and the error names the failed shard.
func TestWorkerDisconnectFailsFast(t *testing.T) {
	g := gen.Gnp(300, 0.05, 3)
	const p = 2
	addrCh := make(chan string, 1)
	spec := Net(NetConfig{Listen: "127.0.0.1:0", Shards: p, Timeout: recoveryTimeout,
		OnListen: func(addr string) { addrCh <- addr }})
	go func() {
		_ = doomWorker(t, <-addrCh, g, 1, p, 50)
	}()
	start := time.Now()
	_, err := Run(NewEngine(spec, g), recoverySparsifyJob())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("coordinator finished against a dead worker")
	}
	var wf *workerFailure
	if !errors.As(err, &wf) || wf.shard != 1 {
		t.Fatalf("error does not attribute the failed shard: %v", err)
	}
	if elapsed > recoveryTimeout/2 {
		t.Fatalf("failure took %v — a timeout cascade, not EOF detection", elapsed)
	}
}

// TestDuplicateRejoinAcceptedOnce: when two processes race to rejoin a
// crashed shard, exactly one is accepted; the loser's connection is
// refused and its run fails fast instead of wedging the fleet.
func TestDuplicateRejoinAcceptedOnce(t *testing.T) {
	g := gen.Gnp(300, 0.05, 3)
	const p = 2
	timeout := 3 * time.Second
	ref, err := Run(NewEngine(Mesh(p).WithTimeout(recoveryTimeout), g), recoverySparsifyJob())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var rejoinOK, rejoinFail atomic.Int32
	addrCh := make(chan string, 1)
	spec := Net(NetConfig{
		Listen: "127.0.0.1:0", Shards: p, Timeout: timeout,
		OnListen: func(addr string) { addrCh <- addr },
		Respawn: func(shard int, addr string) {
			for i := 0; i < 2; i++ { // two racing rejoiners for the one dead shard
				wg.Add(1)
				go func() {
					defer wg.Done()
					wspec := Worker(WorkerConfig{Join: addr, Shard: shard, Shards: p, Timeout: timeout})
					if _, err := Run(NewEngine(wspec, g), recoverySparsifyJob()); err != nil {
						rejoinFail.Add(1)
					} else {
						rejoinOK.Add(1)
					}
				}()
			}
		},
		MaxRespawns: 1, CheckpointEvery: 1,
	})
	go func() {
		_ = doomWorker(t, <-addrCh, g, 1, p, 50)
	}()
	res, err := Run(NewEngine(spec, g), recoverySparsifyJob())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if ok, fail := rejoinOK.Load(), rejoinFail.Load(); ok != 1 || fail != 1 {
		t.Fatalf("rejoin race: %d accepted, %d refused; want exactly 1 and 1", ok, fail)
	}
	if res.Output.M() != ref.Output.M() {
		t.Fatalf("recovered m=%d vs failure-free %d", res.Output.M(), ref.Output.M())
	}
}

// pipePair wires two peerConns over an in-memory full-duplex pipe.
func pipePair(t *testing.T) (*peerConn, *peerConn) {
	t.Helper()
	ta, err := newNetTransport(10, 0, 2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := newNetTransport(10, 1, 2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := net.Pipe()
	pa, pb := newPeerConn(ta, ca), newPeerConn(tb, cb)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return pa, pb
}

// TestChecksumMismatchRejected: a stream whose running CRC disagrees
// with the peer's frameCheck is rejected before any payload is
// decoded, and a check frame for the wrong round is rejected too.
func TestChecksumMismatchRejected(t *testing.T) {
	run := func(corrupt func(pb *peerConn), wantErr string, readRound uint32) {
		pa, pb := pipePair(t)
		errCh := make(chan error, 1)
		go func() {
			h := frameHeader{Type: frameRound, From: 1, To: 0, Round: 5, Count: 0}
			if err := pa.writeFrame(h, nil); err != nil {
				errCh <- err
				return
			}
			if err := pa.writeCheck(5); err != nil {
				errCh <- err
				return
			}
			errCh <- pa.flush()
		}()
		if _, _, err := pb.readFrame(frameRound); err != nil {
			t.Fatal(err)
		}
		corrupt(pb)
		err := pb.readCheck(readRound)
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("want error containing %q, got %v", wantErr, err)
		}
		if werr := <-errCh; werr != nil {
			t.Fatal(werr)
		}
	}
	// The stream hash disagrees (as if a data frame was corrupted in
	// flight): rejected before decode.
	run(func(pb *peerConn) { pb.rsum ^= 0xdeadbeef }, "checksum mismatch", 5)
	// The check frame itself is for the wrong round: rejected.
	run(func(*peerConn) {}, "round", 6)
}

// TestChecksumAgreesEndToEnd: matching streams verify and both sums
// reset for the next barrier.
func TestChecksumAgreesEndToEnd(t *testing.T) {
	pa, pb := pipePair(t)
	go func() {
		h := frameHeader{Type: frameRound, From: 1, To: 0, Round: 9, Count: 0}
		_ = pa.writeFrame(h, nil)
		_ = pa.writeCheck(9)
		_ = pa.flush()
	}()
	if _, _, err := pb.readFrame(frameRound); err != nil {
		t.Fatal(err)
	}
	if err := pb.readCheck(9); err != nil {
		t.Fatal(err)
	}
	if pa.wsum != 0 || pb.rsum != 0 {
		t.Fatalf("sums not reset after check: wsum=%#x rsum=%#x", pa.wsum, pb.rsum)
	}
}

// TestNetHandshakeValidation: joins with a mismatched configuration
// are rejected before any round runs. The worker side fails
// immediately (its connection is closed on it); the coordinator treats
// the bad join as a stray — it keeps accepting and fails only when the
// join window's deadline expires with the shard still missing.
func TestNetHandshakeValidation(t *testing.T) {
	if _, err := listenNet(10, NetConfig{Listen: "127.0.0.1:0", Shards: 100, Timeout: 2 * time.Second}); err == nil {
		t.Fatal("accepted more shards than vertices")
	}
	if _, err := joinNet(10, WorkerConfig{Join: "127.0.0.1:1", Shard: 0, Shards: 2, Timeout: time.Second}); err == nil {
		t.Fatal("shard 0 joined as a worker")
	}
	coord, err := listenNet(10, NetConfig{Listen: "127.0.0.1:0", Shards: 2, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	done := make(chan error, 1)
	go func() {
		// Wrong n: the coordinator must refuse, and WaitReady fail.
		_, err := joinNet(11, WorkerConfig{Join: coord.Addr(), Shard: 1, Shards: 2, Timeout: 2 * time.Second})
		done <- err
	}()
	if err := coord.WaitReady(); err == nil {
		t.Fatal("coordinator accepted a mismatched worker")
	}
	if err := <-done; err == nil {
		t.Fatal("mismatched worker joined successfully")
	}
}

// TestWaitReadyToleratesStrays: non-protocol connections — a port
// scanner's garbage, a health check that connects and hangs up — are
// closed and the join window keeps accepting; the real worker still
// gets in. This was a bring-up bug: one stray used to abort the fleet.
func TestWaitReadyToleratesStrays(t *testing.T) {
	coord, err := listenNet(10, NetConfig{Listen: "127.0.0.1:0", Shards: 2, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	joined := make(chan error, 1)
	go func() {
		// Stray 1: garbage bytes, then hang up.
		if c, err := net.Dial("tcp", coord.Addr()); err == nil {
			c.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
			c.Close()
		}
		// Stray 2: connect and hang up immediately.
		if c, err := net.Dial("tcp", coord.Addr()); err == nil {
			c.Close()
		}
		tr, err := joinNet(10, WorkerConfig{Join: coord.Addr(), Shard: 1, Shards: 2, Timeout: 2 * time.Second})
		if err == nil {
			defer tr.Close()
		}
		joined <- err
	}()
	if err := coord.WaitReady(); err != nil {
		t.Fatalf("strays aborted bring-up: %v", err)
	}
	if err := <-joined; err != nil {
		t.Fatal(err)
	}
}

// TestWaitReadyDeadlineSlides: each successful join refreshes the
// accept deadline, so P−1 workers no longer share a single timeout
// window — a worker may join later than the original deadline as long
// as it is within one timeout of the previous join. This was a
// bring-up bug: the deadline was set once for the whole window.
func TestWaitReadyDeadlineSlides(t *testing.T) {
	timeout := 2 * time.Second
	coord, err := listenNet(10, NetConfig{Listen: "127.0.0.1:0", Shards: 3, Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	var wg sync.WaitGroup
	for i, delay := range []time.Duration{1200 * time.Millisecond, 2600 * time.Millisecond} {
		wg.Add(1)
		go func(shard int, d time.Duration) {
			defer wg.Done()
			time.Sleep(d)
			tr, err := joinNet(10, WorkerConfig{Join: coord.Addr(), Shard: shard, Shards: 3, Timeout: timeout})
			if err != nil {
				t.Errorf("shard %d: %v", shard, err)
				return
			}
			tr.Close()
		}(i+1, delay)
	}
	// The second join lands at +2.6s — past the original 2s deadline,
	// inside the deadline slid by the first join at +1.2s.
	if err := coord.WaitReady(); err != nil {
		t.Fatalf("sliding deadline failed: %v", err)
	}
	wg.Wait()
}

// TestCollectiveRoundTagValidated: a peer whose collective sequence is
// out of step can no longer satisfy the wrong collective silently —
// the Round tag on collective frames is validated on both sides.
func TestCollectiveRoundTagValidated(t *testing.T) {
	coord, err := listenNet(10, NetConfig{Listen: "127.0.0.1:0", Shards: 2, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	workerErr := make(chan error, 1)
	go func() {
		workerErr <- func() (err error) {
			defer recoverNetError(&err)
			tr, err := joinNet(10, WorkerConfig{Join: coord.Addr(), Shard: 1, Shards: 2, Timeout: 2 * time.Second})
			if err != nil {
				return err
			}
			defer tr.Close()
			tr.seq = 5 // desynchronize: frames will carry collective 6
			tr.AllMaxInt32(3)
			return nil
		}()
	}()
	coordErr := func() (err error) {
		defer recoverNetError(&err)
		if err := coord.WaitReady(); err != nil {
			return err
		}
		coord.AllMaxInt32(1)
		return nil
	}()
	if coordErr == nil || !strings.Contains(coordErr.Error(), "collective") {
		t.Fatalf("coordinator accepted a desynchronized collective: %v", coordErr)
	}
	// The worker is still blocked on the result (heartbeats keep it
	// alive); tearing the coordinator down unblocks it with an error.
	coord.Close()
	if err := <-workerErr; err == nil {
		t.Fatal("desynchronized worker finished cleanly")
	}
}

// TestHeartbeatsKeepSlowComputeAlive: with a 300ms frame timeout a
// worker that computes for 900ms between frames would previously kill
// the run; heartbeats (every timeout/4) keep both directions alive, so
// only real death — not slow rounds — trips the timeout.
func TestHeartbeatsKeepSlowComputeAlive(t *testing.T) {
	timeout := 300 * time.Millisecond
	coord, err := listenNet(10, NetConfig{Listen: "127.0.0.1:0", Shards: 2, Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	got := make(chan int32, 1)
	go func() {
		_ = func() (err error) {
			defer recoverNetError(&err)
			tr, err := joinNet(10, WorkerConfig{Join: coord.Addr(), Shard: 1, Shards: 2, Timeout: timeout})
			if err != nil {
				t.Error(err)
				got <- -1
				return err
			}
			defer tr.Close()
			time.Sleep(3 * timeout) // "compute" far past the frame timeout
			got <- tr.AllMaxInt32(5)
			return nil
		}()
	}()
	res := func() (x int32) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("coordinator died waiting out the slow worker: %v", r)
			}
		}()
		if err := coord.WaitReady(); err != nil {
			t.Fatal(err)
		}
		return coord.AllMaxInt32(2)
	}()
	if res != 5 {
		t.Fatalf("coordinator max=%d, want 5", res)
	}
	if w := <-got; w != 5 {
		t.Fatalf("worker max=%d, want 5", w)
	}
}

// runMeshLinkLossWorker joins the fleet as `shard` with fault
// injection that severs the worker's DIRECT links after
// failFrames written frames — the hub stays alive. To the fleet this
// is what losing an async round batch looks like without losing the
// process: both endpoints of the dead link park on their hubs and
// report a fault, and the coordinator must recover off the report,
// because no hub connection ever goes dead on its own. The worker
// follows the engine's recovery protocol: ack rollbacks and re-run
// until the attempt completes or fails for real.
func runMeshLinkLossWorker(t *testing.T, addr string, g *graph.Graph, shard, p, failFrames int) error {
	t.Helper()
	tr, err := joinNet(g.N, WorkerConfig{Join: addr, Shard: shard, Shards: p, Timeout: recoveryTimeout})
	if err != nil {
		return err
	}
	defer tr.Close()
	tr.failAfterFrames = failFrames
	tr.failAct = func() {
		for _, pc := range tr.links[1:] {
			if pc != nil {
				pc.c.Close()
			}
		}
	}
	for {
		_, err := runNetJob(tr, graph.PartitionOf(g, shard, p), recoverySparsifyJob(), nil)
		var rb *rollbackError
		if errors.As(err, &rb) {
			if aerr := tr.ackRollback(rb.generation); aerr != nil {
				return aerr
			}
			continue
		}
		return err
	}
}

// TestMeshRunSurvivesLinkLoss pins the fault-report path of mesh
// recovery: a worker's direct links are severed mid-run while every
// hub connection stays alive. The coordinator cannot see the break on
// its own sockets — it learns of it only from the survivors'
// frameFault reports, which also name the shard to recover (the
// parked reporter's heartbeats would otherwise keep the coordinator
// blocked on a live connection until the rollback park expired and
// killed the whole fleet — the deadlock this frame exists to break).
// Whichever endpoint the first-read report blames is rolled back and
// respawned; the other survivor retries; output and ledger stay
// bit-identical, and the recovery completes well inside the park
// window.
func TestMeshRunSurvivesLinkLoss(t *testing.T) {
	fx := newCrashFixture(t, 3)
	g, p := fx.g, fx.p

	var respawns atomic.Int32
	var wg sync.WaitGroup
	addrCh := make(chan string, 1)
	spec := Net(NetConfig{
		Listen: "127.0.0.1:0", Shards: p, Timeout: recoveryTimeout,
		OnListen: func(addr string) { addrCh <- addr },
		Respawn: func(shard int, addr string) {
			respawns.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				wspec := Worker(WorkerConfig{Join: addr, Shard: shard, Shards: p,
					Timeout: recoveryTimeout, JoinRetry: recoveryTimeout})
				if _, err := Run(NewEngine(wspec, g), recoverySparsifyJob()); err != nil {
					t.Errorf("respawned shard %d: %v", shard, err)
				}
			}()
		},
		MaxRespawns: 2, CheckpointEvery: 1,
	})
	// Exactly one of the two original workers is blamed by the first
	// report the coordinator reads (each endpoint of the severed link
	// blames the other) — that one is torn down and respawned, the
	// other retries cleanly. Which one wins the race is legitimately
	// nondeterministic, so collect both errors and assert the count.
	workerErrs := make([]error, p)
	go func() {
		addr := <-addrCh
		wg.Add(1)
		go func() { // the healthy survivor, on the public engine path
			defer wg.Done()
			wspec := Worker(WorkerConfig{Join: addr, Shard: 2, Shards: p,
				Timeout: recoveryTimeout})
			_, err := Run(NewEngine(wspec, g), recoverySparsifyJob())
			workerErrs[2] = err
		}()
		wg.Add(1)
		go func() { // severs its own direct links mid-run, hub intact
			defer wg.Done()
			workerErrs[1] = runMeshLinkLossWorker(t, addr, g, 1, p, 900)
		}()
	}()

	start := time.Now()
	res, err := Run(NewEngine(spec, g), recoverySparsifyJob())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 2*recoveryTimeout {
		t.Fatalf("recovery took %v — the park window expired instead of the fault report landing", elapsed)
	}
	if n := respawns.Load(); n != 1 {
		t.Fatalf("respawns=%d, want 1 (the blamed endpoint of the severed link)", n)
	}
	var failed int
	for s, werr := range workerErrs {
		if werr != nil {
			failed++
			t.Logf("shard %d torn down as blamed: %v", s, werr)
		}
	}
	if failed != 1 {
		t.Fatalf("%d original workers failed, want exactly 1 (the blamed endpoint)", failed)
	}
	fx.check(t, res)
}

// TestPeerFailFaultAttribution pins the attribution override: a
// faultReport anywhere in the error chain re-routes the recovery to
// the reported suspect, not the shard whose connection carried the
// report; a report naming an impossible shard falls back to the
// carrying connection.
func TestPeerFailFaultAttribution(t *testing.T) {
	tr := &NetTransport{part: newPartition(100, 3)}
	var wf *workerFailure
	err := tr.peerFail(1, errors.New("plain read failure"))
	if !errors.As(err, &wf) || wf.shard != 1 {
		t.Fatalf("plain failure attributed to %v, want shard 1", err)
	}
	err = tr.peerFail(1, &faultReport{reporter: 1, suspect: 2})
	if !errors.As(err, &wf) || wf.shard != 2 {
		t.Fatalf("bare fault report attributed to %v, want shard 2", err)
	}
	err = tr.peerFail(1, &NetError{Err: &faultReport{reporter: 1, suspect: 2}})
	if !errors.As(err, &wf) || wf.shard != 2 {
		t.Fatalf("wrapped fault report attributed to %v, want shard 2", err)
	}
	err = tr.peerFail(1, &faultReport{reporter: 1, suspect: 7})
	if !errors.As(err, &wf) || wf.shard != 1 {
		t.Fatalf("out-of-range suspect attributed to %v, want fallback shard 1", err)
	}
}
