package dist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
)

// NetTransport is the bulk-synchronous TCP transport: each shard of
// the vertex partition is a separate OS process holding only its slice
// of the graph (see the Worker spec and graph.Partition). It bills
// every message on its own row of the exchange core, like the
// in-process transports, and moves only what another process reads:
// a message whose recipient another shard owns (the spanner's notices
// over edges that cross the partition) and the posts, staged in one
// bucket per destination shard and flushed as batched binary frames at
// every round barrier.
//
// Topology: shard 0 is the coordinator; it listens, the workers join,
// and control traffic (collectives, blobs, recovery) always flows
// through it. Round data travels on a full mesh (see mesh.go): every
// process holds one link to every other shard — a worker's link to
// shard 0 is its hub connection, and the workers dial each other
// directly — so each batch crosses the wire once.
//
// EndRound is one barrier that every shard runs: to each other shard
// it queues the batch staged for that shard, one frameTally carrying
// its own local tally (its row's, billed when each message was sent —
// the barrier bills nothing), and one frameCheck, hands them to the
// link's writer goroutine, then reads the same three frames from every
// other shard — each inbound batch is held raw until the stream
// checksum verifies, then parsed straight into the mailboxes, and an
// envelope its sender could not have staged for this shard is a
// *NetError naming the sender. A post crosses a link once, as one
// record per (poster, destination shard) counting the poster's live
// edges into that shard; the receiver checks the count against its own
// view and writes the post onto its board. Every process sums the P
// local tallies itself, so Stats.Rounds, Words, and the CrossShard
// split are identical on every process and to the single-process
// transports, which the equivalence matrix pins. Everything a shard
// owes a peer is queued before it reads that peer, and the writer
// goroutines drain while it reads, so the barrier cannot deadlock on
// full socket buffers. Collectives (AllMaxInt32, AllOrWord, the blob
// gather/broadcast) write then read synchronously on the hub links and
// carry a per-transport collective sequence number in their Round
// field, so a desynchronized peer can never satisfy the wrong
// collective silently.
//
// Failure model: liveness is heartbeat-based and failure is recovered
// by deterministic replay. Each connection direction carries a
// frameHeartbeat every timeout/4 while the peer computes, and every
// read refreshes its deadline per frame — so a slow round survives any
// timeout, while a dead or partitioned peer is detected within one
// timeout (a killed process is detected immediately via EOF/RST). A
// worker that loses a direct link also reports the
// dead peer on its hub (frameFault), so the coordinator learns of a
// death it cannot see on the connection it is currently reading and
// attributes the recovery to the right shard (see meshFail).
// Data frames (frameRound, frameTally, the collectives, blobs) feed a
// running CRC-32C per direction that is cross-checked by frameCheck at
// every round barrier, before any payload is decoded. On a worker
// failure the coordinator rolls the fleet back (frameRollback, acked
// by the survivors), respawns the dead shard from its partition file
// via the NetConfig.Respawn hook, and every process re-runs the
// attempt from the top: each round is a pure function of (seed,
// partition, round number) and the coordinator re-broadcasts its last
// checkpoint each attempt, so replay reproduces bit-identical frames,
// tallies, and output (see checkpoint.go and the recovery tests).
// With failover armed (NetConfig.Failover), COORDINATOR death is
// survivable too: every worker binds its peer listener (even at P = 2)
// and announces it at the join handshake, the coordinator broadcasts
// the peer address book each attempt, and on losing the hub the
// lowest-numbered shard in the book adopts shard 0 from its copy of
// the broadcast checkpoint, its peer listener becoming the hub, while
// the other survivors rejoin that address (see failover.go and
// engine.go). Protocol
// violations and checksum mismatches remain fatal: the transport
// panics with *NetError, which drivers recover into an exit. Timeouts
// default to 60s per frame.
type NetTransport struct {
	part    partition
	self    int
	x       *exchanger
	timeout time.Duration

	// sendTo stages this shard's envelopes by destination shard: the
	// messages Send billed whose recipient that shard owns. postTo
	// stages its post records, encoded after the envelopes of the
	// round's batch; postCount is Post's per-shard count of one
	// poster's live slots at P ≥ 3, zero between calls.
	sendTo    [][]envelope
	postTo    [][]postRecord
	postCount []int32
	// mailbox[v-lo] holds what other shards sent vertex v of this
	// shard's range [lo, hi) in the round the last barrier closed,
	// filled by deliverBatch.
	mailbox [][]Message

	ln net.Listener // coordinator only
	// links holds this process's connection to every other shard,
	// indexed by shard (nil at self). On the coordinator they are the
	// workers' hub connections; on a worker links[0] is its hub and the
	// others are its direct links to the other workers (see mesh.go).
	links []*peerConn
	ready bool

	// The full-mesh data plane (see mesh.go). meshLn is a worker's
	// peer listener (bound when P > 2 or failover is armed), announced
	// to the coordinator at the join handshake; meshAddrs is the peer
	// address book — collected from the handshakes on the coordinator,
	// adopted from the per-attempt broadcast on workers.
	meshLn    net.Listener
	meshAddrs []string

	// Coordinator failover (NetConfig.Failover / WorkerConfig.Failover;
	// see failover.go): the peer listener doubles as the standby hub
	// and the peer book as the election's input. lastHeader and
	// lastCkpt are a worker's copies of the coordinator's job-header and
	// checkpoint broadcasts, kept current so an elected worker can
	// re-broadcast the exact same run state.
	failover   bool
	lastHeader []byte
	lastCkpt   *ckptState

	wireBytes int64
	// dataBytes is the worker↔worker round-batch subset of wireBytes
	// (headers included): the batches the direct links carry, each
	// written exactly once fleet-wide.
	dataBytes int64

	// seq numbers the collective operations (AllMaxInt32, AllOrWord,
	// AllGatherInt32s, BroadcastBlob, GatherBlobs) within an attempt;
	// it rides in the frames' Round field and both sides validate it.
	seq uint32
	// generation counts recovery rollbacks, so a stale ack can never
	// satisfy a newer rollback.
	generation uint32

	// Fault injection for recovery drills (WorkerConfig.FailAfterFrames
	// and the in-process recovery tests): after framesWritten reaches
	// failAfterFrames, failAct runs — or, when nil, the process
	// SIGKILLs itself, the honest worker-death drill.
	failAfterFrames int
	framesWritten   int
	failAct         func()

	// bufFree is the transport's payload-buffer freelist, size-classed
	// by power of two. The round path of one transport is a single
	// goroutine (heartbeat senders never allocate payloads), so no lock
	// is needed. Blob payloads escape to the application and are never
	// pooled; everything else cycles through getBuf/putBuf.
	bufFree [31][][]byte
}

// bufFreeDepth bounds how many buffers one size class retains.
const bufFreeDepth = 8

// getBuf returns a length-n byte buffer, reusing a pooled one when the
// freelist has a large enough size class. Contents are arbitrary —
// every user overwrites (io.ReadFull, putEnvelope, ...).
func (t *NetTransport) getBuf(n int) []byte {
	if n == 0 {
		return nil
	}
	c := bits.Len(uint(n - 1)) // smallest c with 1<<c >= n
	if s := t.bufFree[c]; len(s) > 0 {
		b := s[len(s)-1]
		t.bufFree[c] = s[:len(s)-1]
		return b[:n]
	}
	return make([]byte, n, 1<<c)
}

// putBuf returns a buffer to the freelist. Callers must own b and drop
// every reference to it; a buffer that is never returned is simply
// garbage collected, so forgetting is safe and double-returning is the
// only misuse.
func (t *NetTransport) putBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	c := bits.Len(uint(cap(b))) - 1 // largest c with 1<<c <= cap
	if len(t.bufFree[c]) < bufFreeDepth {
		t.bufFree[c] = append(t.bufFree[c], b[:0])
	}
}

// NetError is the fatal-failure panic value of a NetTransport.
type NetError struct{ Err error }

func (e *NetError) Error() string { return "dist: network transport: " + e.Err.Error() }
func (e *NetError) Unwrap() error { return e.Err }

// workerFailure marks a coordinator-side I/O or protocol failure on
// one worker's connection; the recovery loop in runNetCoordinatorJob
// reads the shard to respawn off it.
type workerFailure struct {
	shard int
	err   error
}

func (e *workerFailure) Error() string {
	return fmt.Sprintf("worker shard %d failed: %v", e.shard, e.err)
}
func (e *workerFailure) Unwrap() error { return e.err }

// faultReport surfaces a worker's frameFault on the coordinator: the
// reporting shard's direct mesh link to the suspect shard died. The
// report matters because the coordinator only probes the connection it
// is currently reading — without it, a death visible only on a LATER
// connection in the read order deadlocks the fleet until the
// reporter's rollback park expires (see meshFail). peerFail re-routes
// the recovery to the suspect instead of the reporter.
type faultReport struct{ reporter, suspect int }

func (e *faultReport) Error() string {
	return fmt.Sprintf("shard %d reports its link to shard %d dead", e.reporter, e.suspect)
}

// rollbackError unwinds a worker's run attempt when the coordinator
// announces a recovery rollback; runNetWorkerJob acks it and re-runs
// the attempt.
type rollbackError struct{ generation uint32 }

func (e *rollbackError) Error() string {
	return fmt.Sprintf("coordinator rolled the run back (recovery generation %d)", e.generation)
}

// DefaultNetTimeout is the per-frame I/O deadline when none is given.
const DefaultNetTimeout = 60 * time.Second

// crcTable is the CRC-32C (Castagnoli) table of the per-direction
// stream checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameChecksummed reports whether a frame type feeds the running
// stream checksum. Data frames do; control frames (handshake,
// heartbeat, the check itself, rollback/ack) do not — a worker writes
// its hello before any attempt starts, and heartbeats interleave
// asynchronously, so hashing them would desynchronize the two sides.
func frameChecksummed(typ uint8) bool {
	switch typ {
	case frameRound, frameTally, frameMax, frameOr, frameGather, frameBlob:
		return true
	}
	return false
}

type peerConn struct {
	c  net.Conn
	br *bufio.Reader
	t  *NetTransport

	// pending accumulates the header and payload slices of every frame
	// written since the last flush; flush hands the whole batch to the
	// kernel as ONE vectored write (net.Buffers → writev), so a round
	// barrier costs one syscall per peer instead of one per frame. Only
	// the round goroutine appends; wmu is taken only to write the
	// socket, serializing flushes with the heartbeat sender.
	pending      net.Buffers
	pendingBytes int64
	// hdrChunks is the arena the pending frame headers live in: fixed
	// chunks, so a header slice handed to pending is never invalidated
	// by a later append (a growing slice would reallocate under it).
	hdrChunks [][]byte
	hdrUsed   int // headers handed out since the last flush
	// retire holds pooled payload buffers owned by the pending batch;
	// they return to the transport's freelist only after the flush that
	// writes them.
	retire [][]byte

	// wmu serializes socket writes (flush) with the heartbeat sender.
	wmu sync.Mutex
	// wsum/rsum are the running CRC-32C of the data frames written/read
	// since the last frameCheck in that direction. Only the owning
	// round goroutine touches them (heartbeats are excluded).
	wsum, rsum uint32
	// rollbackOK marks the worker's hub connection: a frameRollback may
	// arrive at any read point and surfaces as *rollbackError.
	rollbackOK bool

	hbStop chan struct{}
	hbDone chan struct{}

	// Async double buffering (every round barrier; see mesh.go):
	// flushAsync hands the pending batch to a dedicated writer
	// goroutine, so round r's bytes go to the kernel while the round
	// goroutine stages round r+1. All resource bookkeeping (the payload
	// freelist, the header arena) happens on the round goroutine when
	// it reclaims acked batches — the writer only writes and acks, so
	// the freelists stay lock-free.
	writerCh   chan *pendingBatch
	writerAck  chan *pendingBatch
	writerDone chan struct{}
	inflight   int
	werr       error // sticky first async write error
	spare      []*pendingBatch
	// spareChunks holds header-arena chunks returned by reclaimed async
	// batches; headerSlot reuses them before allocating.
	spareChunks [][]byte
}

func newPeerConn(t *NetTransport, c net.Conn) *peerConn {
	return &peerConn{c: c, br: bufio.NewReaderSize(c, 1<<16), t: t}
}

// headersPerChunk sizes the header-arena chunks of a pending batch.
const headersPerChunk = 64

// headerSlot returns a stable headerSize slice for the next pending
// frame header. Chunks are reused across batches: a sync flush keeps
// the arena in place, an async flush hands it to the in-flight batch
// and it comes back through spareChunks once the write completes.
func (p *peerConn) headerSlot() []byte {
	chunk, off := p.hdrUsed/headersPerChunk, (p.hdrUsed%headersPerChunk)*headerSize
	if chunk == len(p.hdrChunks) {
		if n := len(p.spareChunks); n > 0 {
			p.hdrChunks = append(p.hdrChunks, p.spareChunks[n-1])
			p.spareChunks[n-1] = nil
			p.spareChunks = p.spareChunks[:n-1]
		} else {
			p.hdrChunks = append(p.hdrChunks, make([]byte, headersPerChunk*headerSize))
		}
	}
	p.hdrUsed++
	return p.hdrChunks[chunk][off : off+headerSize]
}

// retireBuf marks a pooled payload buffer as owned by the pending
// batch; flush releases it back to the transport's freelist.
func (p *peerConn) retireBuf(b []byte) {
	if cap(b) > 0 {
		p.retire = append(p.retire, b)
	}
}

// startHeartbeats begins the liveness sender: one frameHeartbeat per
// timeout/4 of silence, written straight to the socket under wmu so it
// can never tear a flushed batch. Heartbeats bypass writeFrame — they
// are not counted in WireBytes (which stays deterministic), not
// hashed, and not batched: a heartbeat may hit the wire before frames
// still pending in the batch, which is safe because readFrame consumes
// heartbeats transparently at any position in the stream.
func (p *peerConn) startHeartbeats() {
	interval := p.t.timeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	p.hbStop = make(chan struct{})
	p.hbDone = make(chan struct{})
	go func() {
		defer close(p.hbDone)
		var hb [headerSize]byte
		putHeader(hb[:], frameHeader{Type: frameHeartbeat})
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-p.hbStop:
				return
			case <-ticker.C:
			}
			p.wmu.Lock()
			_ = p.c.SetWriteDeadline(time.Now().Add(p.t.timeout))
			_, err := p.c.Write(hb[:])
			p.wmu.Unlock()
			if err != nil {
				return // the round path will surface the failure
			}
		}
	}()
}

func (p *peerConn) stopHeartbeats() {
	if p.hbStop != nil {
		close(p.hbStop)
		<-p.hbDone
		p.hbStop = nil
	}
}

// close stops the heartbeat sender, drains the async writer, flushes,
// and closes the socket.
func (p *peerConn) close() error {
	p.stopHeartbeats()
	_ = p.flush()
	p.stopWriter()
	return p.c.Close()
}

// writeFrame appends one frame to the pending batch. The payload slice
// must stay untouched until the next flush — the batch references it,
// it is not copied. CRC-32C and WireBytes accounting happen here, at
// append time, so they are byte-identical to the unbatched protocol;
// I/O errors surface at flush (writeFrame itself cannot fail, but
// keeps the error signature so call sites read as writes).
func (p *peerConn) writeFrame(h frameHeader, payload []byte) error {
	if p.t.failAfterFrames > 0 {
		p.t.framesWritten++
		if p.t.framesWritten >= p.t.failAfterFrames {
			p.t.failAfterFrames = 0
			if p.t.failAct != nil {
				p.t.failAct()
			} else {
				crashSelf()
			}
		}
	}
	hb := p.headerSlot()
	putHeader(hb, h)
	p.pending = append(p.pending, hb)
	if len(payload) > 0 {
		p.pending = append(p.pending, payload)
	}
	p.pendingBytes += int64(headerSize + len(payload))
	if frameChecksummed(h.Type) {
		p.wsum = crc32.Update(p.wsum, crcTable, hb)
		p.wsum = crc32.Update(p.wsum, crcTable, payload)
	}
	p.t.wireBytes += int64(headerSize + len(payload))
	if h.Type == frameRound && h.From != 0 && h.To != 0 {
		p.t.dataBytes += int64(headerSize + len(payload))
	}
	return nil
}

// flush writes the whole pending batch as one vectored write, then
// releases the batch's pooled payload buffers and header arena for
// reuse. Every protocol path flushes (or hands the batch to the async
// writer, see flushAsync) before it reads from the same peer, so
// frames never sit pending across a read of that peer — the per-peer
// write-then-read alternation that makes the barrier deadlock-free.
// Draining the async writer first keeps this connection's bytes in
// protocol order even when round batches went out asynchronously.
func (p *peerConn) flush() error {
	if err := p.drainAsync(); err != nil {
		return err
	}
	if len(p.pending) == 0 {
		return nil
	}
	p.wmu.Lock()
	_ = p.c.SetWriteDeadline(time.Now().Add(p.t.timeout))
	bufs := p.pending
	_, err := bufs.WriteTo(p.c)
	p.wmu.Unlock()
	for i := range p.pending {
		p.pending[i] = nil
	}
	p.pending = p.pending[:0]
	p.pendingBytes = 0
	p.hdrUsed = 0
	for _, b := range p.retire {
		p.t.putBuf(b)
	}
	p.retire = p.retire[:0]
	return err
}

// crashSelf is the honest worker-death fault injection: SIGKILL, no
// deferred cleanup, no goodbye — exactly what a preempted or OOM-killed
// worker looks like to the fleet.
func crashSelf() {
	if proc, err := os.FindProcess(os.Getpid()); err == nil {
		_ = proc.Kill()
	}
	select {} // unreachable: SIGKILL cannot be caught
}

// maxFramePayload bounds a single frame's payload. Legitimate batches
// are far smaller; the bound exists so that a corrupt Count header (or
// a non-protocol client) lands on the *NetError path instead of
// aborting the process with a huge allocation.
const maxFramePayload = 1 << 30

// payloadLen returns the byte length of a frame's payload.
func payloadLen(h frameHeader) (int, error) {
	var n int
	switch h.Type {
	case frameHello, frameWelcome:
		n = helloSize
	case frameRound:
		n = int(h.Count) * envelopeSize
	case frameTally:
		n = tallySize
	case frameMax:
		n = 4
	case frameOr:
		n = int(h.Count) * 8
	case frameGather:
		n = int(h.Count) * 4
	case frameBlob:
		n = int(h.Count)
	case frameCheck:
		n = checkSize
	case frameHeartbeat, frameRollback, frameRollbackAck, frameFault:
		n = 0
	case frameMeshAddr:
		if h.Count > maxMeshAddrLen {
			return 0, fmt.Errorf("implausible mesh address length %d", h.Count)
		}
		n = int(h.Count)
	case frameMeshHello, frameMeshWelcome:
		n = helloSize
	default:
		return 0, fmt.Errorf("unknown frame type %d", h.Type)
	}
	if n < 0 || n > maxFramePayload {
		return 0, fmt.Errorf("implausible frame payload: type %d count %d", h.Type, h.Count)
	}
	return n, nil
}

// readFrame reads the next frame, requiring the given type (the SPMD
// schedule means both sides always agree on what comes next; a
// mismatch is a protocol violation, not a reorder). Heartbeats are
// consumed transparently, each refreshing the read deadline — so
// liveness, not per-frame latency, is what the timeout bounds. On a
// worker's hub connection a frameRollback surfaces as *rollbackError
// at any read point, unwinding the attempt.
func (p *peerConn) readFrame(wantType uint8) (frameHeader, []byte, error) {
	for {
		_ = p.c.SetReadDeadline(time.Now().Add(p.t.timeout))
		var hb [headerSize]byte
		if _, err := io.ReadFull(p.br, hb[:]); err != nil {
			return frameHeader{}, nil, err
		}
		h, err := parseHeader(hb[:])
		if err != nil {
			return frameHeader{}, nil, err
		}
		if h.Type == frameHeartbeat {
			continue
		}
		if h.Type == frameRollback && p.rollbackOK {
			return frameHeader{}, nil, &rollbackError{generation: h.Round}
		}
		if h.Type == frameFault {
			return frameHeader{}, nil, &faultReport{reporter: int(h.From), suspect: int(h.To)}
		}
		if h.Type != wantType {
			return frameHeader{}, nil, fmt.Errorf("expected frame type %d, got %d", wantType, h.Type)
		}
		n, err := payloadLen(h)
		if err != nil {
			return frameHeader{}, nil, err
		}
		// Blob payloads are handed to the application (checkpoint and
		// result bytes) and must not cycle through the freelist; every
		// other payload is protocol-internal and pooled.
		var payload []byte
		if h.Type == frameBlob {
			payload = make([]byte, n)
		} else {
			payload = p.t.getBuf(n)
		}
		if _, err := io.ReadFull(p.br, payload); err != nil {
			return frameHeader{}, nil, err
		}
		if frameChecksummed(h.Type) {
			p.rsum = crc32.Update(p.rsum, crcTable, hb[:])
			p.rsum = crc32.Update(p.rsum, crcTable, payload)
		}
		return h, payload, nil
	}
}

// writeCheck emits the running write-direction checksum and resets it;
// the peer's readCheck must observe the identical running sum. The
// payload buffer is pooled and retired at the flush that writes it.
func (p *peerConn) writeCheck(round uint32) error {
	b := p.t.getBuf(checkSize)
	putU32(b, p.wsum)
	if err := p.writeFrame(frameHeader{Type: frameCheck, Round: round, Count: checkSize}, b); err != nil {
		return err
	}
	p.retireBuf(b)
	p.wsum = 0
	return nil
}

// readCheck validates the peer's checksum against the running
// read-direction sum — called before any buffered round payload is
// decoded, so corrupted traffic is rejected, never interpreted.
func (p *peerConn) readCheck(round uint32) error {
	h, payload, err := p.readFrame(frameCheck)
	if err != nil {
		return err
	}
	got := getU32(payload)
	p.t.putBuf(payload)
	if h.Round != round {
		return fmt.Errorf("checksum frame for round %d, want round %d", h.Round, round)
	}
	if got != p.rsum {
		return fmt.Errorf("stream checksum mismatch at round %d: peer wrote %#x, stream hashed to %#x (corrupted traffic)", round, got, p.rsum)
	}
	p.rsum = 0
	return nil
}

// drainToAck discards inbound frames until the rollback ack of the
// given generation, then resets both stream checksums for the next
// attempt. An I/O error means the survivor died too.
func (p *peerConn) drainToAck(gen uint32) error {
	for {
		_ = p.c.SetReadDeadline(time.Now().Add(p.t.timeout))
		var hb [headerSize]byte
		if _, err := io.ReadFull(p.br, hb[:]); err != nil {
			return err
		}
		h, err := parseHeader(hb[:])
		if err != nil {
			return err
		}
		n, err := payloadLen(h)
		if err != nil {
			return err
		}
		if n > 0 {
			if _, err := io.CopyN(io.Discard, p.br, int64(n)); err != nil {
				return err
			}
		}
		if h.Type == frameRollbackAck && h.Round == gen {
			p.wsum, p.rsum = 0, 0
			return nil
		}
	}
}

// helloFlags returns the hello/welcome capability bits of a transport
// with the given failover setting. Every process of a fleet must agree
// on failover — the hello/welcome flags reject a mix.
func helloFlags(failover bool) uint32 {
	if failover {
		return helloFlagFailover
	}
	return 0
}

// listenNet binds the coordinator (shard 0) transport of cfg for a
// run over n vertices. It returns after binding; Addr reports the
// bound address to hand to workers, and WaitReady blocks until all
// cfg.Shards−1 workers have joined.
func listenNet(n int, cfg NetConfig) (*NetTransport, error) {
	t, err := newNetTransport(n, 0, cfg.Shards, cfg.Timeout)
	if err != nil {
		return nil, err
	}
	t.failover = cfg.Failover
	if t.part.p > 1 {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, err
		}
		t.ln = ln
	}
	return t, nil
}

// joinNet dials the coordinator at cfg.Join and joins as cfg.Shard.
// It blocks until the coordinator accepts the handshake. When peer
// listeners are in use (P > 2 or failover armed) the worker first
// binds its peer listener on cfg.PeerListen ("127.0.0.1:0" if empty;
// set a routable host for multi-machine runs) and announces the
// address during the handshake.
func joinNet(n int, cfg WorkerConfig) (*NetTransport, error) {
	shard := cfg.Shard
	t, err := newNetTransport(n, shard, cfg.Shards, cfg.Timeout)
	if err != nil {
		return nil, err
	}
	if shard == 0 {
		return nil, fmt.Errorf("dist: shard 0 is the coordinator, not a joining worker")
	}
	t.failover = cfg.Failover
	if t.peerListened() {
		peerListen := cfg.PeerListen
		if peerListen == "" {
			peerListen = "127.0.0.1:0"
		}
		ln, err := net.Listen("tcp", peerListen)
		if err != nil {
			return nil, fmt.Errorf("dist: binding peer listener %q: %w", peerListen, err)
		}
		t.meshLn = ln
	}
	fail := func(err error) (*NetTransport, error) {
		if t.meshLn != nil {
			t.meshLn.Close()
			t.meshLn = nil
		}
		return nil, err
	}
	c, err := net.DialTimeout("tcp", cfg.Join, t.timeout)
	if err != nil {
		return fail(err)
	}
	hub := newPeerConn(t, c)
	hub.rollbackOK = true
	t.links[0] = hub
	// The capability flags ride the otherwise-unused Round field of the
	// hello/welcome headers, leaving the hello payload encoding untouched.
	flags := helloFlags(t.failover)
	hh := frameHeader{Type: frameHello, From: uint16(shard), Round: flags}
	var hb [helloSize]byte
	putHello(hb[:], hello{Version: wireVersion, N: uint64(n), Shard: uint32(shard), Shards: uint32(t.part.p)})
	if err := hub.writeFrame(hh, hb[:]); err != nil {
		c.Close()
		return fail(err)
	}
	if t.meshLn != nil {
		peerAddr := []byte(t.meshLn.Addr().String())
		ah := frameHeader{Type: frameMeshAddr, From: uint16(shard), Count: uint32(len(peerAddr))}
		if err := hub.writeFrame(ah, peerAddr); err != nil {
			c.Close()
			return fail(err)
		}
	}
	if err := hub.flush(); err != nil {
		c.Close()
		return fail(err)
	}
	wh, payload, err := hub.readFrame(frameWelcome)
	if err != nil {
		c.Close()
		return fail(fmt.Errorf("dist: join handshake: %w (a version or capability mismatch closes the connection — check that every process runs the same build and agrees on -failover)", err))
	}
	if wh.Round != flags {
		c.Close()
		return fail(fmt.Errorf("dist: capability mismatch: coordinator failover=%v, this worker failover=%v",
			wh.Round&helloFlagFailover != 0, t.failover))
	}
	if got := parseHello(payload); got.Version != wireVersion || got.N != uint64(n) || got.Shards != uint32(t.part.p) {
		c.Close()
		return fail(fmt.Errorf("dist: coordinator config mismatch: %+v", got))
	}
	hub.startHeartbeats()
	t.ready = true
	return t, nil
}

func newNetTransport(n, shard, shards int, timeout time.Duration) (*NetTransport, error) {
	if shards != graph.ClampShards(n, shards) {
		return nil, fmt.Errorf("dist: %d shards invalid for %d vertices", shards, n)
	}
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("dist: shard %d out of range [0,%d)", shard, shards)
	}
	if timeout <= 0 {
		timeout = DefaultNetTimeout
	}
	t := &NetTransport{
		part:      newPartition(n, shards),
		self:      shard,
		x:         newExchanger(n, shards, shards),
		timeout:   timeout,
		sendTo:    make([][]envelope, shards),
		postTo:    make([][]postRecord, shards),
		postCount: make([]int32, shards),
		links:     make([]*peerConn, shards),
	}
	t.mailbox = make([][]Message, t.part.bounds[shard+1]-t.part.bounds[shard])
	t.ready = t.part.p == 1
	return t, nil
}

// Addr returns the coordinator's bound listen address.
func (t *NetTransport) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// WaitReady accepts and validates the join handshake of every worker.
// Coordinator only; a no-op once ready.
func (t *NetTransport) WaitReady() error {
	if t.ready {
		return nil
	}
	if t.ln == nil {
		return fmt.Errorf("dist: WaitReady on a worker transport")
	}
	missing := make(map[int]bool)
	for s := 1; s < t.part.p; s++ {
		if t.links[s] == nil {
			missing[s] = true
		}
	}
	if err := t.acceptWorkers(missing); err != nil {
		return err
	}
	t.ready = true
	return nil
}

// acceptWorkers accepts connections until every missing shard has
// joined — the shared join window of bring-up (WaitReady) and
// recovery. Two deliberate behaviors:
//
//   - A connection that fails the handshake — a port scanner, a health
//     check, a mis-configured or duplicate worker — is closed and the
//     window keeps accepting. Strays must never abort a fleet.
//   - The accept deadline slides on every successful join, so each
//     joiner gets its own timeout budget instead of P−1 workers
//     sharing one. (It does not slide on strays, so a hostile drip of
//     garbage cannot hold the window open forever; a stray that
//     connects and sends nothing costs at most one handshake-read
//     timeout.)
func (t *NetTransport) acceptWorkers(missing map[int]bool) error {
	type deadliner interface{ SetDeadline(time.Time) error }
	d, _ := t.ln.(deadliner)
	deadline := time.Now().Add(t.timeout)
	for len(missing) > 0 {
		if d != nil {
			_ = d.SetDeadline(deadline)
		}
		c, err := t.ln.Accept()
		if err != nil {
			return fmt.Errorf("dist: accepting workers (%d shard(s) missing): %w", len(missing), err)
		}
		pc := newPeerConn(t, c)
		s, err := t.acceptHandshake(pc, missing)
		if err != nil {
			c.Close()
			continue
		}
		t.links[s] = pc
		pc.startHeartbeats()
		delete(missing, s)
		deadline = time.Now().Add(t.timeout)
	}
	return nil
}

// acceptHandshake validates one join: protocol version, global sizes,
// a failover setting that matches this coordinator's, and a shard id
// that is in range, missing, and not already joined — so a duplicate
// rejoin after a crash is accepted exactly once. When peer listeners
// are in use (P > 2 or failover armed) the worker's announced peer
// address follows its hello and is recorded in the address book
// (validated here, before any dial, so a bad address is an actionable
// handshake error rather than a mysterious mid-bring-up dial failure
// on some other worker or a failed election).
func (t *NetTransport) acceptHandshake(pc *peerConn, missing map[int]bool) (int, error) {
	fh, payload, err := pc.readFrame(frameHello)
	if err != nil {
		return 0, fmt.Errorf("dist: worker handshake: %w", err)
	}
	h := parseHello(payload)
	if h.Version != wireVersion || h.N != uint64(t.part.n) || h.Shards != uint32(t.part.p) {
		return 0, fmt.Errorf("dist: worker config mismatch: %+v", h)
	}
	s := int(h.Shard)
	if s < 1 || s >= t.part.p || t.links[s] != nil || !missing[s] {
		return 0, fmt.Errorf("dist: bad or duplicate worker shard %d", s)
	}
	if fh.Round != helloFlags(t.failover) {
		return 0, fmt.Errorf("dist: capability mismatch: coordinator failover=%v, worker shard %d failover=%v",
			t.failover, s, fh.Round&helloFlagFailover != 0)
	}
	if t.peerListened() {
		ah, apayload, err := pc.readFrame(frameMeshAddr)
		if err != nil {
			return 0, fmt.Errorf("dist: worker shard %d mesh address: %w", s, err)
		}
		addr := string(apayload)
		t.putBuf(apayload)
		if int(ah.From) != s {
			return 0, fmt.Errorf("dist: mesh address from shard %d inside shard %d's handshake", ah.From, s)
		}
		if host, port, err := net.SplitHostPort(addr); err != nil || host == "" || port == "" {
			return 0, fmt.Errorf("dist: worker shard %d announced unusable peer address %q (want host:port): %v", s, addr, err)
		}
		if t.meshAddrs == nil {
			t.meshAddrs = make([]string, t.part.p)
		}
		t.meshAddrs[s] = addr
	}
	wf := frameHeader{Type: frameWelcome, Round: helloFlags(t.failover)}
	var wb [helloSize]byte
	putHello(wb[:], hello{Version: wireVersion, N: uint64(t.part.n), Shard: h.Shard, Shards: uint32(t.part.p)})
	if err := pc.writeFrame(wf, wb[:]); err != nil {
		return 0, err
	}
	if err := pc.flush(); err != nil {
		return 0, err
	}
	return s, nil
}

// beginAttempt resets the per-attempt protocol state on every process:
// the collective sequence restarts at zero and any staged, billed or
// delivered traffic of an aborted attempt is dropped. Called at the
// top of every runNetJob attempt, so a replay starts from a
// bit-identical state.
func (t *NetTransport) beginAttempt() {
	t.seq = 0
	for r := 0; r < t.part.p; r++ {
		t.sendTo[r] = t.sendTo[r][:0]
		t.postTo[r] = t.postTo[r][:0]
	}
	_ = t.x.takeTally(t.self)
	t.clearMailboxes()
	t.x.board.reset()
}

// recoverWorkers restores the fleet after a worker failure: bump the
// recovery generation, announce the rollback to the survivors and
// drain each to its ack (a survivor that fails the drain is dead too —
// e.g. one that finished and exited before the rollback reached it),
// abort and respawn every dead shard through the hook, and re-run the
// join window for the missing shards. On success the transport is
// ready for a fresh attempt; the caller re-runs the job, which replays
// deterministically from the coordinator's checkpoint.
func (t *NetTransport) recoverWorkers(first int, respawn func(shard int, addr string), budget *int) error {
	if t.self != 0 || t.ln == nil {
		return fmt.Errorf("dist: recovery is coordinator-only")
	}
	if first < 1 || first >= t.part.p {
		return fmt.Errorf("dist: cannot recover shard %d", first)
	}
	t.generation++
	gen := t.generation
	dead := map[int]bool{first: true}
	for w := 1; w < t.part.p; w++ {
		if dead[w] || t.links[w] == nil {
			continue
		}
		p := t.links[w]
		if err := p.writeFrame(frameHeader{Type: frameRollback, Round: gen}, nil); err != nil {
			dead[w] = true
			continue
		}
		if err := p.flush(); err != nil {
			dead[w] = true
		}
	}
	for w := 1; w < t.part.p; w++ {
		if dead[w] || t.links[w] == nil {
			continue
		}
		if err := t.links[w].drainToAck(gen); err != nil {
			dead[w] = true
		}
	}
	var toRespawn []int
	for w := 1; w < t.part.p; w++ {
		if dead[w] || t.links[w] == nil {
			toRespawn = append(toRespawn, w)
		}
	}
	sort.Ints(toRespawn)
	if len(toRespawn) > *budget {
		return fmt.Errorf("dist: %d worker(s) dead but only %d respawn(s) left in the budget", len(toRespawn), *budget)
	}
	*budget -= len(toRespawn)
	missing := make(map[int]bool)
	for _, w := range toRespawn {
		if t.links[w] != nil {
			t.links[w].abort()
			t.links[w] = nil
		}
		missing[w] = true
		respawn(w, t.Addr())
	}
	return t.acceptWorkers(missing)
}

// ackRollback is the worker side of recovery: tear down the mesh data
// plane (the dead shard's links are gone and every survivor rebuilds
// from the fresh address book next attempt), reset both stream
// checksums, and acknowledge the rollback generation, after which the
// worker re-runs the attempt from the top.
func (t *NetTransport) ackRollback(gen uint32) error {
	if t.self == 0 {
		return fmt.Errorf("dist: ackRollback on a coordinator transport")
	}
	t.teardownMesh()
	hub := t.links[0]
	hub.wsum, hub.rsum = 0, 0
	if err := hub.writeFrame(frameHeader{Type: frameRollbackAck, Round: gen}, nil); err != nil {
		return err
	}
	return hub.flush()
}

// Close tears the transport down. Every link stops its heartbeats and
// drains its writer before the socket closes, so the last round's
// batches reach the peers still reading them (abort, the no-drain
// teardown, is reserved for links already known dead). A worker's hub
// (link 0) closes last.
func (t *NetTransport) Close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for d := len(t.links) - 1; d >= 0; d-- {
		if p := t.links[d]; p != nil {
			keep(p.close())
		}
	}
	for _, ln := range []net.Listener{t.meshLn, t.ln} {
		if ln != nil {
			keep(ln.Close())
		}
	}
	return first
}

// WireBytes returns the bytes this process has written to the network
// (frame headers included) — the transport's own honesty counter, next
// to the model-level Stats.CrossShardWords. Heartbeats are excluded:
// they are timing-dependent, and this counter is deterministic.
func (t *NetTransport) WireBytes() int64 { return t.wireBytes }

// DataWireBytes returns the worker↔worker round-batch subset of
// WireBytes this process wrote — the bytes on the direct mesh links
// (zero at P ≤ 2, where there are none).
func (t *NetTransport) DataWireBytes() int64 { return t.dataBytes }

// Shard returns this process's shard id.
func (t *NetTransport) Shard() int { return t.self }

// fatal aborts the run on an unrecoverable transport failure.
func (t *NetTransport) fatal(err error) {
	panic(&NetError{Err: err})
}

// peerFail wraps a coordinator-side failure on one worker's connection
// so the recovery loop can attribute it to a shard. A faultReport in
// the chain overrides the attribution: the connection it arrived on
// belongs to a live reporter parked for the rollback — the shard to
// recover is the suspect whose link died.
func (t *NetTransport) peerFail(shard int, err error) error {
	var fr *faultReport
	if errors.As(err, &fr) && fr.suspect >= 1 && fr.suspect < t.part.p {
		return &workerFailure{shard: fr.suspect, err: err}
	}
	return &workerFailure{shard: shard, err: err}
}

func (t *NetTransport) mustReady() {
	if !t.ready {
		t.fatal(fmt.Errorf("transport used before WaitReady"))
	}
}

// Shards returns the global shard count P.
func (t *NetTransport) Shards() int { return t.part.p }

// Workers returns P: the execution partition spans every process, of
// which exactly one worker (this shard) runs locally.
func (t *NetTransport) Workers() int { return t.part.p }

// ForWorkers runs body for this process's own shard only — the other
// workers are other processes executing the same phase of the same
// schedule.
func (t *NetTransport) ForWorkers(body func(worker, lo, hi int)) {
	if t.part.n <= 0 {
		return
	}
	body(t.self, t.part.bounds[t.self], t.part.bounds[t.self+1])
}

// Send bills m on this shard's row and, when another shard owns `to`,
// stages it for that shard. Only a message from a vertex owned here
// can be staged: one from elsewhere could never have been sent by
// this process, so it is a fatal contract violation rather than a
// silent drop.
func (t *NetTransport) Send(to int32, m Message) {
	r := t.part.shardOf(to)
	if r != t.self && (m.From < 0 || t.part.shardOf(m.From) != t.self) {
		t.fatal(fmt.Errorf("message for vertex %d (shard %d) from %d staged on shard %d, which does not own its sender",
			to, r, m.From, t.self))
	}
	t.x.bill(t.self, r, m)
	if r != t.self {
		t.sendTo[r] = append(t.sendTo[r], envelope{to: to, m: m})
	}
}

// Post stores m on this shard's board, bills it on this shard's row,
// and stages one record for each other shard holding a live slot of
// m.From, with the number of those slots. At P = 2 that number is the
// board's cross-shard count of m.From; at P ≥ 3 Post splits it by
// shard with a walk of m.From's live slots. Like Send, it is a fatal
// contract violation to post for a vertex this shard does not own.
func (t *NetTransport) Post(m Message) {
	u := m.From
	if s := t.part.shardOf(u); s != t.self {
		t.fatal(fmt.Errorf("post from vertex %d (shard %d) on shard %d, which does not own it", u, s, t.self))
	}
	t.x.post(t.self, m)
	b := &t.x.board
	switch {
	case t.part.p == 2:
		if c := b.cross[u]; c > 0 {
			t.postTo[1-t.self] = append(t.postTo[1-t.self], postRecord{count: c, m: m})
		}
	case t.part.p > 2:
		// The walk ends at the last of u's cross[u] live cross-shard
		// slots.
		left := b.cross[u]
		olo, ohi := int32(t.part.bounds[t.self]), int32(t.part.bounds[t.self+1])
		lo, hi := b.adj.Range(u)
		nbrs := b.adj.Nbr[lo:hi]
		for i, eid := range b.adj.EID[lo:hi] {
			if left == 0 {
				break
			}
			if nbr := nbrs[i]; !b.dead[eid] && (nbr < olo || nbr >= ohi) {
				t.postCount[t.part.shardOf(nbr)]++
				left--
			}
		}
		for d, c := range t.postCount {
			if c > 0 {
				t.postTo[d] = append(t.postTo[d], postRecord{count: c, m: m})
				t.postCount[d] = 0
			}
		}
	}
}

func (t *NetTransport) board() *postBoard { return &t.x.board }

// Recv returns the messages other shards sent v, a vertex of this
// shard, in the round the last EndRound closed.
func (t *NetTransport) Recv(v int32) []Message { return t.mailbox[int(v)-t.part.bounds[t.self]] }

// clearMailboxes empties this shard's mailboxes.
func (t *NetTransport) clearMailboxes() {
	for i := range t.mailbox {
		t.mailbox[i] = t.mailbox[i][:0]
	}
}

// encodeBatch packs the envelopes and then the post records staged for
// shard d into a pooled buffer, leaving both stages empty; the caller
// hands the buffer to writeFrame and retires it at flush.
func (t *NetTransport) encodeBatch(d int) []byte {
	envs, posts := t.sendTo[d], t.postTo[d]
	t.sendTo[d], t.postTo[d] = envs[:0], posts[:0]
	buf := t.getBuf((len(envs) + len(posts)) * envelopeSize)
	for i, env := range envs {
		putEnvelope(buf[i*envelopeSize:], env)
	}
	for i, p := range posts {
		putPost(buf[(len(envs)+i)*envelopeSize:], p)
	}
	return buf
}

// EndRound is the round barrier, the same on every shard. To each
// other shard d it queues three frames on the link to d — the batch
// staged for d (envelopes, then post records), this shard's local
// tally (its row's, billed as each message was sent), and the stream
// check — and hands them to the link's writer goroutine (flushAsync),
// so every shard writes before it reads without waiting on full socket
// buffers. It then reads the same three frames from every d in shard
// order, parsing each batch straight into the mailboxes in origin
// order 0..P−1 and its posts onto the board, and makes the round's
// posts readable. It returns the sum of the P local tallies, which
// every process computes alike.
func (t *NetTransport) EndRound(round int) RoundTally {
	t.mustReady()
	self := t.self
	total := t.x.takeTally(self)
	tb := make([]byte, tallySize)
	putTally(tb, total)
	for d, pc := range t.links {
		if pc == nil {
			continue
		}
		payload := t.encodeBatch(d)
		h := frameHeader{Type: frameRound, From: uint16(self), To: uint16(d), Round: uint32(round), Count: uint32(len(payload) / envelopeSize)}
		err := pc.writeFrame(h, payload)
		pc.retireBuf(payload)
		if err == nil {
			err = pc.writeFrame(frameHeader{Type: frameTally, From: uint16(self), Round: uint32(round)}, tb)
		}
		if err == nil {
			err = pc.writeCheck(uint32(round))
		}
		if err == nil {
			err = pc.flushAsync()
		}
		if err != nil {
			t.fatal(fmt.Errorf("round %d: %w", round, t.linkFail(d, err)))
		}
	}
	t.clearMailboxes()
	for d, pc := range t.links {
		if pc == nil {
			continue
		}
		payload, tally, err := t.readRound(pc, d, round)
		if err != nil {
			t.fatal(fmt.Errorf("round %d: %w", round, t.linkFail(d, err)))
		}
		total.add(tally)
		err = t.deliverBatch(d, payload)
		t.putBuf(payload)
		if err != nil {
			t.fatal(fmt.Errorf("round %d: batch from shard %d: %w", round, d, err))
		}
	}
	t.x.board.now++
	return total
}

// crossesProcesses reports whether messages of kind k may arrive from
// another process as envelopes: the kinds whose payload is the
// sender's state (the neighbour exchanges, which the spanner posts,
// and the notices). MsgSampled and MsgKeep carry what the recipient's
// owner derives from the seed, so their recipient's owner sends them
// and they never cross.
func (k MsgKind) crossesProcesses() bool {
	switch k {
	case MsgCenter, MsgNewCenter, MsgAdd, MsgDrop:
		return true
	}
	return false
}

// deliverBatch parses shard d's verified batch straight into this
// shard's mailboxes and post board, rejecting any record shard d could
// not have staged for it: an envelope whose recipient is not owned
// here, whose kind may not cross processes or whose From is not d's; a
// post whose kind is not a neighbour exchange, whose From is not d's,
// or whose count is not the number of the poster's live slots in this
// shard's view; and a cluster id, an index of the spanner's
// accumulator, outside [0, n).
func (t *NetTransport) deliverBatch(d int, payload []byte) error {
	lo, hi := int32(t.part.bounds[t.self]), int32(t.part.bounds[t.self+1])
	flo, fhi := int32(t.part.bounds[d]), int32(t.part.bounds[d+1])
	b := &t.x.board
	for off := 0; off < len(payload); off += envelopeSize {
		i := off / envelopeSize
		switch recordForm(payload[off:]) {
		case recordEnvelope:
			env := parseEnvelope(payload[off:])
			if env.to < lo || env.to >= hi || !env.m.Kind.crossesProcesses() || env.m.From < flo || env.m.From >= fhi {
				return fmt.Errorf("envelope %d (kind %d, from %d to %d) is not one it can stage for shard %d: From must be in [%d, %d), to in [%d, %d), and the kind one that crosses processes",
					i, env.m.Kind, env.m.From, env.to, t.self, flo, fhi, lo, hi)
			}
			if k := env.m.Kind; k.posted() && uint32(env.m.A) >= uint32(t.part.n) {
				return fmt.Errorf("envelope %d (kind %d, from %d) names cluster %d outside [0, %d)", i, k, env.m.From, env.m.A, t.part.n)
			}
			t.mailbox[env.to-lo] = append(t.mailbox[env.to-lo], env.m)
		case recordPost:
			p := parsePost(payload[off:])
			u := p.m.From
			switch {
			case !p.m.Kind.posted() || u < flo || u >= fhi:
				return fmt.Errorf("post %d (kind %d, from %d) is not one it can stage: From must be in [%d, %d) and the kind a neighbour exchange", i, p.m.Kind, u, flo, fhi)
			case uint32(p.m.A) >= uint32(t.part.n):
				return fmt.Errorf("post %d (kind %d, from %d) names cluster %d outside [0, %d)", i, p.m.Kind, u, p.m.A, t.part.n)
			case b.adj == nil:
				return fmt.Errorf("post %d (from %d) arrived in a round that does not post", i, u)
			case b.posts[u].at == b.now+1:
				return fmt.Errorf("post %d: vertex %d posted twice in one round", i, u)
			}
			if live := b.liveSlots(u); p.count <= 0 || p.count != live {
				return fmt.Errorf("post %d from vertex %d counts %d edges, but shard %d holds %d live edges of it", i, u, p.count, t.self, live)
			}
			b.put(p.m)
		default:
			return fmt.Errorf("record %d has unknown form %d", i, recordForm(payload[off:]))
		}
	}
	return nil
}

// readRound reads shard d's barrier frames off its link: the batch,
// returned raw, and the tally, parsed only after the stream check
// verifies, so corrupted traffic is rejected, never interpreted.
func (t *NetTransport) readRound(pc *peerConn, d, round int) ([]byte, RoundTally, error) {
	h, payload, err := pc.readFrame(frameRound)
	if err != nil {
		return nil, RoundTally{}, err
	}
	if int(h.From) != d || int(h.To) != t.self || int(h.Round) != round {
		return nil, RoundTally{}, fmt.Errorf("misrouted batch %+v (want from %d to %d round %d)", h, d, t.self, round)
	}
	th, tb, err := pc.readFrame(frameTally)
	if err != nil {
		return nil, RoundTally{}, err
	}
	if int(th.From) != d || int(th.Round) != round {
		return nil, RoundTally{}, fmt.Errorf("misrouted tally %+v (want from %d round %d)", th, d, round)
	}
	if err := pc.readCheck(uint32(round)); err != nil {
		return nil, RoundTally{}, err
	}
	tally := parseTally(tb)
	t.putBuf(tb)
	return payload, tally, nil
}

// linkFail attributes a failure on the link to shard d. The
// coordinator names the worker, so the recovery loop respawns it
// (peerFail); a worker that loses a direct link reports it and parks
// for the rollback (meshFail); a worker's lost hub surfaces as is, for
// the failover election or a fatal exit.
func (t *NetTransport) linkFail(d int, err error) error {
	err = fmt.Errorf("link to shard %d: %w", d, err)
	switch {
	case t.self == 0:
		return t.peerFail(d, err)
	case d == 0:
		return err
	}
	return t.meshFail(d, err)
}

// gather is the upward half of every hub collective: a worker writes
// one frame of type typ (Count count, the attempt's collective
// sequence number in Round) to its hub and flushes; the coordinator
// reads one such frame from each worker in shard order, validating
// its origin and sequence number. The coordinator gets the payloads
// indexed by shard (slot 0 empty), a worker gets nil. Coordinator-side
// failures name the worker (peerFail).
func (t *NetTransport) gather(typ uint8, count uint32, payload []byte) ([][]byte, error) {
	if t.self != 0 {
		if err := t.links[0].writeFrame(frameHeader{Type: typ, From: uint16(t.self), Round: t.seq, Count: count}, payload); err != nil {
			return nil, err
		}
		return nil, t.links[0].flush()
	}
	out := make([][]byte, t.part.p)
	for w := 1; w < t.part.p; w++ {
		h, b, err := t.links[w].readFrame(typ)
		if err != nil {
			return nil, t.peerFail(w, fmt.Errorf("collective %d from shard %d: %w", t.seq, w, err))
		}
		if int(h.From) != w || h.Round != t.seq {
			return nil, t.peerFail(w, fmt.Errorf("collective frame %+v from shard %d, want collective %d", h, w, t.seq))
		}
		out[w] = b
	}
	return out, nil
}

// broadcast is the downward half: the coordinator writes one frame of
// type typ to every worker, flushing each, and returns its own
// payload; a worker reads the frame from its hub, validates the
// sequence number, and returns the payload.
func (t *NetTransport) broadcast(typ uint8, count uint32, payload []byte) ([]byte, error) {
	if t.self != 0 {
		h, b, err := t.links[0].readFrame(typ)
		if err != nil {
			return nil, err
		}
		if h.Round != t.seq {
			return nil, fmt.Errorf("dist: collective frame %+v, want collective %d", h, t.seq)
		}
		return b, nil
	}
	h := frameHeader{Type: typ, Round: t.seq, Count: count}
	for w := 1; w < t.part.p; w++ {
		if err := t.links[w].writeFrame(h, payload); err != nil {
			return nil, t.peerFail(w, err)
		}
		if err := t.links[w].flush(); err != nil {
			return nil, t.peerFail(w, err)
		}
	}
	return payload, nil
}

// AllMaxInt32 reduces x to its maximum across all shards (the
// control-plane convergecast of collectiveTransport).
func (t *NetTransport) AllMaxInt32(x int32) int32 {
	return int32(t.allReduce(frameMax, uint64(uint32(x)), func(a, b uint64) uint64 {
		if int32(b) > int32(a) {
			return b
		}
		return a
	}))
}

// AllOrWord reduces w by bitwise OR across all shards.
func (t *NetTransport) AllOrWord(w uint64) uint64 {
	return t.allReduce(frameOr, w, func(a, b uint64) uint64 { return a | b })
}

// allReduce is the one-value collective behind AllMaxInt32 and
// AllOrWord: every worker contributes x to the coordinator, which
// folds the contributions into its own in shard order with combine
// and broadcasts the result. frameMax carries 4 bytes; frameOr keeps
// its vector encoding (Count=1, one 8-byte word).
func (t *NetTransport) allReduce(typ uint8, x uint64, combine func(a, b uint64) uint64) uint64 {
	t.mustReady()
	t.seq++
	if t.part.p == 1 {
		return x
	}
	count, size := uint32(0), 4
	if typ == frameOr {
		count, size = 1, 8
	}
	var vb [8]byte
	binary.LittleEndian.PutUint64(vb[:], x)
	word := func(w int, b []byte) uint64 {
		if len(b) != size {
			err := fmt.Errorf("collective %d carries %d bytes, want %d", t.seq, len(b), size)
			if w > 0 {
				err = t.peerFail(w, err)
			}
			t.fatal(err)
		}
		var wb [8]byte
		copy(wb[:], b) // little-endian: a 4-byte value zero-extends
		t.putBuf(b)
		return binary.LittleEndian.Uint64(wb[:])
	}
	parts, err := t.gather(typ, count, vb[:size])
	if err != nil {
		t.fatal(err)
	}
	for w := 1; w < len(parts); w++ {
		x = combine(x, word(w, parts[w]))
	}
	binary.LittleEndian.PutUint64(vb[:], x)
	res, err := t.broadcast(typ, count, vb[:size])
	if err != nil {
		t.fatal(err)
	}
	if t.self == 0 {
		return x
	}
	return word(0, res)
}

// AllGatherInt32s merges the shards' sorted, disjoint id lists into
// the globally sorted union: workers converge their contributions on
// the coordinator, which k-way-merges them (the contributions are
// sorted and disjoint, so the merge is a linear zip) and broadcasts
// the union back. O(total list length) words on the wire — the
// control-plane cost of the bundle-id renumbering, which replaced the
// Θ(m)-bit mask merge of the sparse-table era.
func (t *NetTransport) AllGatherInt32s(xs []int32) []int32 {
	t.mustReady()
	t.seq++
	if t.part.p == 1 {
		return xs
	}
	parts, err := t.gather(frameGather, uint32(len(xs)), packInt32s(xs))
	if err != nil {
		t.fatal(err)
	}
	var merged []int32
	if t.self == 0 {
		lists := make([][]int32, t.part.p)
		lists[0] = xs
		for w := 1; w < t.part.p; w++ {
			lists[w] = parseInt32s(parts[w])
			t.putBuf(parts[w])
		}
		merged = mergeSortedInt32s(lists)
	}
	res, err := t.broadcast(frameGather, uint32(len(merged)), packInt32s(merged))
	if err != nil {
		t.fatal(err)
	}
	if t.self != 0 {
		merged = parseInt32s(res)
		t.putBuf(res)
	}
	return merged
}

// mergeParallelMin is the total element count above which a level of
// pairwise merges runs its zips concurrently. Below it the goroutine
// fork/join costs more than the merge.
const mergeParallelMin = 1 << 15

// mergeSortedInt32s merges sorted disjoint lists into one sorted list
// by rounds of pairwise two-way zips — O(total · log P) work. Above
// mergeParallelMin total elements the zips of one level run in
// parallel (they touch disjoint inputs and outputs, and each level
// joins before the next starts, so the result is deterministic).
func mergeSortedInt32s(lists [][]int32) []int32 {
	if len(lists) == 0 {
		return nil
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	for len(lists) > 1 {
		pairs := len(lists) / 2
		merged := make([][]int32, (len(lists)+1)/2)
		if len(lists)%2 == 1 {
			merged[len(merged)-1] = lists[len(lists)-1]
		}
		if pairs > 1 && total >= mergeParallelMin {
			var wg sync.WaitGroup
			wg.Add(pairs)
			for i := 0; i < pairs; i++ {
				go func(i int) {
					defer wg.Done()
					merged[i] = mergeTwoInt32s(lists[2*i], lists[2*i+1])
				}(i)
			}
			wg.Wait()
		} else {
			for i := 0; i < pairs; i++ {
				merged[i] = mergeTwoInt32s(lists[2*i], lists[2*i+1])
			}
		}
		lists = merged
	}
	return lists[0]
}

// mergeTwoInt32s zips two sorted lists.
func mergeTwoInt32s(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

func packInt32s(xs []int32) []byte {
	buf := make([]byte, len(xs)*4)
	for i, x := range xs {
		binary.LittleEndian.PutUint32(buf[i*4:], uint32(x))
	}
	return buf
}

func parseInt32s(payload []byte) []int32 {
	xs := make([]int32, len(payload)/4)
	for i := range xs {
		xs[i] = int32(binary.LittleEndian.Uint32(payload[i*4:]))
	}
	return xs
}

// BroadcastBlob ships an opaque application payload from the
// coordinator to every worker (workers pass nil and receive it).
func (t *NetTransport) BroadcastBlob(b []byte) ([]byte, error) {
	if err := t.WaitReady(); err != nil {
		return nil, err
	}
	t.seq++
	if t.part.p == 1 {
		return b, nil
	}
	return t.broadcast(frameBlob, uint32(len(b)), b)
}

// GatherBlobs ships every process's payload to the coordinator, which
// receives them indexed by shard (its own included); workers get nil.
func (t *NetTransport) GatherBlobs(b []byte) ([][]byte, error) {
	if err := t.WaitReady(); err != nil {
		return nil, err
	}
	t.seq++
	if t.part.p == 1 {
		return [][]byte{b}, nil
	}
	out, err := t.gather(frameBlob, uint32(len(b)), b)
	if out != nil {
		out[0] = b
	}
	return out, err
}

func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }

func getU32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }
