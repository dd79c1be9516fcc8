package dist

// The full-mesh data plane of the network transport: workers dial each
// other directly and exchange their round batches peer-to-peer, so a
// cross-shard batch crosses the wire exactly once and shard 0 carries
// only its own batches — the direct-neighbour model of the paper's
// distributed bounds, billed once per link. The hub connections carry
// everything else — the join handshake, tallies, collectives, blobs,
// and the recovery protocol. At P ≤ 2 no worker has a direct peer, so
// there are no links; the same barrier pair runs over the hub alone.
//
// Bring-up happens once per attempt (setupDataPlane): each worker
// announced its peer listener address during the join handshake, the
// coordinator broadcasts the assembled address book after the job
// header and checkpoint, and every worker dials its lower-numbered
// peers while accepting its higher-numbered ones. The same listener is
// a failover worker's standby hub (see failover.go), so with failover
// armed it is bound, announced, and broadcast even at P = 2, where it
// carries no links. Each direct link runs the full connection
// discipline of the hub: heartbeats in both directions, a per-direction
// CRC-32C stream checksum cross-checked at every barrier, and frame
// batching through the shared net.Buffers arena.
//
// On top of the direct links the barrier double-buffers: flushAsync
// hands a completed vectored batch to a per-connection writer
// goroutine and returns, so the round goroutine encodes the next
// peer's batch (and, across barriers, computes round r+1) while round
// r's bytes drain to the kernel. The write-then-read alternation that
// keeps the protocol deadlock-free is preserved per peer: a worker
// enqueues its batch to peer d before it reads from d, and sync
// operations (collectives, handshakes) drain the async writer first,
// so on any single connection the byte order is exactly the per-frame
// protocol's.
//
// Recovery composes with the mesh through the worker-recovery
// machinery (rollback, checkpointed replay) plus one frame: a worker
// that loses a mesh link first reports the dead peer to the
// coordinator (frameFault on its hub), then parks on the hub waiting
// for the rollback the coordinator will announce. The report is
// load-bearing, not an optimization — the coordinator's only failure
// probe is the connection it is currently reading, and a parked
// worker's heartbeats keep that connection alive, so a death whose hub
// frames all arrived (its async mesh batch alone was lost) would
// otherwise deadlock the fleet until the park expired (see meshFail).
// Every survivor tears its links down before acking, the respawned
// shard announces a fresh listener when it rejoins, and the next
// attempt rebuilds the mesh from the re-broadcast book and replays
// deterministically.

import (
	"fmt"
	"io"
	"net"
	"time"
)

const (
	// maxMeshAddrLen bounds an announced peer listener address.
	maxMeshAddrLen = 512
	// asyncWriterDepth is the writer goroutine's queue depth: how many
	// flushed batches may be in flight on one connection before
	// flushAsync blocks. The ack channel holds strictly more so the
	// writer can never stall acking while the round goroutine stalls
	// enqueueing.
	asyncWriterDepth = 4
)

// peerListened reports whether workers bind, announce, and receive the
// book of peer listeners: for the direct links at p > 2 (with p ≤ 2 no
// worker has a direct peer), and as the failover standby hub whenever
// failover is armed.
func (t *NetTransport) peerListened() bool { return t.part.p > 2 || t.failover }

// pendingBatch is one flushed-but-not-yet-written batch owned by a
// connection's writer goroutine: the vectored buffers, the pooled
// payloads to reclaim after the write, and the header-arena chunks
// the batch's frame headers live in.
type pendingBatch struct {
	bufs   net.Buffers
	retire [][]byte
	chunks [][]byte
	err    error
}

// writerLoop is the connection's dedicated writer: one vectored write
// per batch, serialized with the heartbeat sender (and any sync
// flush) by wmu. It touches no transport state — every buffer flows
// back to the round goroutine through the ack channel.
func (p *peerConn) writerLoop() {
	defer close(p.writerDone)
	for b := range p.writerCh {
		p.wmu.Lock()
		_ = p.c.SetWriteDeadline(time.Now().Add(p.t.timeout))
		bufs := b.bufs // WriteTo consumes its receiver; keep b.bufs for reclaim
		_, err := bufs.WriteTo(p.c)
		p.wmu.Unlock()
		b.err = err
		p.writerAck <- b
	}
}

// takeSpare returns a recycled pendingBatch (or a fresh one), its
// slices emptied but their capacity retained.
func (p *peerConn) takeSpare() *pendingBatch {
	if n := len(p.spare); n > 0 {
		b := p.spare[n-1]
		p.spare[n-1] = nil
		p.spare = p.spare[:n-1]
		return b
	}
	return &pendingBatch{}
}

// reclaimBatch retires one acked batch on the round goroutine: pooled
// payloads return to the freelist, header chunks to the spare arena,
// the first write error sticks.
func (p *peerConn) reclaimBatch(b *pendingBatch) {
	if b.err != nil && p.werr == nil {
		p.werr = b.err
	}
	for i, buf := range b.retire {
		p.t.putBuf(buf)
		b.retire[i] = nil
	}
	b.retire = b.retire[:0]
	p.spareChunks = append(p.spareChunks, b.chunks...)
	for i := range b.chunks {
		b.chunks[i] = nil
	}
	b.chunks = b.chunks[:0]
	for i := range b.bufs {
		b.bufs[i] = nil
	}
	b.bufs = b.bufs[:0]
	b.err = nil
	p.inflight--
	p.spare = append(p.spare, b)
}

// reclaimAcks drains the ack channel, blocking until every in-flight
// batch is reclaimed when block is set.
func (p *peerConn) reclaimAcks(block bool) {
	for p.inflight > 0 {
		if block {
			p.reclaimBatch(<-p.writerAck)
			continue
		}
		select {
		case b := <-p.writerAck:
			p.reclaimBatch(b)
		default:
			return
		}
	}
}

// flushAsync hands the pending batch to the writer goroutine and
// returns without waiting for the socket — the double-buffering seam:
// the caller proceeds to stage (or read) while the batch drains.
// Resources are reclaimed on this goroutine when a later flushAsync,
// flush, or drainAsync observes the write's ack. Write errors are
// sticky and surface on the next flush of any kind; by then the read
// side of the same failure has usually surfaced too, and error
// attribution happens there.
func (p *peerConn) flushAsync() error {
	p.reclaimAcks(false)
	if p.werr != nil {
		return p.werr
	}
	if len(p.pending) == 0 {
		return nil
	}
	if p.writerCh == nil {
		p.writerCh = make(chan *pendingBatch, asyncWriterDepth)
		p.writerAck = make(chan *pendingBatch, 2*asyncWriterDepth)
		p.writerDone = make(chan struct{})
		go p.writerLoop()
	}
	// Swap the staging slices wholesale: the batch takes the pending
	// buffers, the retire list, and the header arena; the connection
	// stages the next batch into the (emptied) slices of a previously
	// reclaimed one, so steady state allocates nothing.
	b := p.takeSpare()
	b.bufs, p.pending = p.pending, net.Buffers(b.bufs[:0])
	b.retire, p.retire = p.retire, b.retire[:0]
	b.chunks, p.hdrChunks = p.hdrChunks, b.chunks[:0]
	p.pendingBytes = 0
	p.hdrUsed = 0
	p.inflight++
	p.writerCh <- b
	return nil
}

// drainAsync blocks until every batch handed to the writer goroutine
// has hit the socket (or failed) and is reclaimed. flush calls it
// first, so on any one connection the sync protocol (collectives,
// handshakes, the hub tally exchange) observes its bytes strictly
// after the async round traffic — per-connection protocol order is
// untouched by double buffering.
func (p *peerConn) drainAsync() error {
	p.reclaimAcks(true)
	return p.werr
}

// stopWriter shuts the writer goroutine down after its queue drains.
func (p *peerConn) stopWriter() {
	if p.writerCh == nil {
		return
	}
	close(p.writerCh)
	<-p.writerDone
	p.reclaimAcks(true)
	p.writerCh = nil
}

// abort tears a connection down without waiting for in-flight writes:
// the socket closes first, so a writer goroutine blocked on a dead or
// stalled peer fails immediately instead of waiting out its deadline.
// Only teardownMesh uses it, during a recovery rollback — a clean
// Close drains every writer first (peerConn.close).
func (p *peerConn) abort() {
	_ = p.c.Close()
	p.stopHeartbeats()
	if p.werr == nil {
		p.werr = fmt.Errorf("connection aborted")
	}
	p.stopWriter()
}

// teardownMesh aborts every direct worker↔worker link on a recovery
// rollback. The peer listener stays open: its address —
// announced once at the join handshake — remains valid in the
// coordinator's book across attempts, and only a respawned shard
// announces a new one.
func (t *NetTransport) teardownMesh() {
	for s, pc := range t.meshPeers {
		if pc != nil {
			pc.abort()
			t.meshPeers[s] = nil
		}
	}
}

// encodeAddrBook packs the coordinator's address book (indexed by
// shard; entries 0 and self are empty) for the bring-up broadcast.
func encodeAddrBook(addrs []string) []byte {
	n := 4
	for _, a := range addrs {
		n += 4 + len(a)
	}
	b := make([]byte, 0, n)
	var u [4]byte
	putU32(u[:], uint32(len(addrs)))
	b = append(b, u[:]...)
	for _, a := range addrs {
		putU32(u[:], uint32(len(a)))
		b = append(b, u[:]...)
		b = append(b, a...)
	}
	return b
}

// decodeAddrBook unpacks a broadcast address book, validating the
// shard count and every length against the blob.
func decodeAddrBook(blob []byte, p int) ([]string, error) {
	if len(blob) < 4 {
		return nil, fmt.Errorf("dist: short mesh address book (%d bytes)", len(blob))
	}
	if count := int(getU32(blob)); count != p {
		return nil, fmt.Errorf("dist: mesh address book has %d entries, want %d", count, p)
	}
	blob = blob[4:]
	addrs := make([]string, p)
	for i := range addrs {
		if len(blob) < 4 {
			return nil, fmt.Errorf("dist: truncated mesh address book at entry %d", i)
		}
		l := int(getU32(blob))
		blob = blob[4:]
		if l > maxMeshAddrLen || len(blob) < l {
			return nil, fmt.Errorf("dist: truncated mesh address book at entry %d", i)
		}
		addrs[i] = string(blob[:l])
		blob = blob[l:]
	}
	return addrs, nil
}

// setupDataPlane broadcasts the peer address book the coordinator
// collected at the join handshakes (when peer listeners are bound) and
// has every worker dial its lower-numbered peers then accept its
// higher-numbered ones (at P = 2 there are none).
// Lower-dials-higher-accepts is acyclic, and a dial needs only the
// peer's listener to exist — TCP's accept backlog parks the connection
// until the acceptor finishes its own dials — so bring-up cannot
// deadlock. Called in every attempt after the header and checkpoint
// broadcasts (the coordinator has waited for every handshake by then):
// a rollback tears every link down, the respawned shard announces a
// fresh listener as it rejoins, and the next attempt rebuilds from the
// fresh book, which workers keep as the failover election's input.
func (t *NetTransport) setupDataPlane() error {
	if !t.peerListened() {
		return nil
	}
	if t.self == 0 {
		_, err := t.BroadcastBlob(encodeAddrBook(t.meshAddrs))
		return err
	}
	blob, err := t.BroadcastBlob(nil)
	if err != nil {
		return err
	}
	if t.meshAddrs, err = decodeAddrBook(blob, t.part.p); err != nil {
		return err
	}
	return t.meshConnect(t.meshAddrs)
}

// meshConnect builds this worker's direct links from the address
// book. Every link is validated by a hello/welcome pair carrying the
// same (version, n, shards) contract as the hub handshake plus the
// acceptor's shard id, so a crossed wire or stale peer fails loudly
// before any round runs.
func (t *NetTransport) meshConnect(book []string) error {
	p := t.part.p
	if t.meshPeers == nil {
		t.meshPeers = make([]*peerConn, p)
	}
	for d := 1; d < t.self; d++ {
		c, err := net.DialTimeout("tcp", book[d], t.timeout)
		if err != nil {
			return t.meshFail(d, fmt.Errorf("dialing shard %d at %q: %w", d, book[d], err))
		}
		pc := newPeerConn(t, c)
		var hb [helloSize]byte
		putHello(hb[:], hello{Version: wireVersion, N: uint64(t.part.n), Shard: uint32(t.self), Shards: uint32(p)})
		if err := pc.writeFrame(frameHeader{Type: frameMeshHello, From: uint16(t.self)}, hb[:]); err == nil {
			err = pc.flush()
		} else {
			err = fmt.Errorf("mesh hello: %w", err)
		}
		if err != nil {
			c.Close()
			return t.meshFail(d, fmt.Errorf("shard %d handshake: %w", d, err))
		}
		_, payload, err := pc.readFrame(frameMeshWelcome)
		if err != nil {
			c.Close()
			return t.meshFail(d, fmt.Errorf("shard %d handshake: %w", d, err))
		}
		got := parseHello(payload)
		t.putBuf(payload)
		if got.Version != wireVersion || got.N != uint64(t.part.n) || got.Shards != uint32(p) || int(got.Shard) != d {
			c.Close()
			return t.meshFail(d, fmt.Errorf("shard %d peer config mismatch: %+v", d, got))
		}
		pc.startHeartbeats()
		t.meshPeers[d] = pc
	}
	need := p - 1 - t.self
	type deadliner interface{ SetDeadline(time.Time) error }
	dl, _ := t.meshLn.(deadliner)
	deadline := time.Now().Add(t.timeout)
	for need > 0 {
		if dl != nil {
			_ = dl.SetDeadline(deadline)
		}
		c, err := t.meshLn.Accept()
		if err != nil {
			return t.meshFail(0, fmt.Errorf("accepting mesh peers (%d missing): %w", need, err))
		}
		pc := newPeerConn(t, c)
		s, err := t.acceptMeshHandshake(pc)
		if err != nil {
			// Like the coordinator's join window: a stray (port scanner,
			// stale dial of a rolled-back attempt) is closed and skipped,
			// never allowed to abort the fleet. The deadline slides only
			// on successful links.
			c.Close()
			continue
		}
		t.meshPeers[s] = pc
		pc.startHeartbeats()
		need--
		deadline = time.Now().Add(t.timeout)
	}
	return nil
}

// acceptMeshHandshake validates one inbound direct link: version and
// sizes, a shard id that is higher-numbered and not already linked.
func (t *NetTransport) acceptMeshHandshake(pc *peerConn) (int, error) {
	_, payload, err := pc.readFrame(frameMeshHello)
	if err != nil {
		return 0, err
	}
	h := parseHello(payload)
	t.putBuf(payload)
	if h.Version != wireVersion || h.N != uint64(t.part.n) || h.Shards != uint32(t.part.p) {
		return 0, fmt.Errorf("dist: mesh peer config mismatch: %+v", h)
	}
	s := int(h.Shard)
	if s <= t.self || s >= t.part.p || t.meshPeers[s] != nil {
		return 0, fmt.Errorf("dist: bad or duplicate mesh peer shard %d", s)
	}
	var wb [helloSize]byte
	putHello(wb[:], hello{Version: wireVersion, N: uint64(t.part.n), Shard: uint32(t.self), Shards: uint32(t.part.p)})
	if err := pc.writeFrame(frameHeader{Type: frameMeshWelcome, From: uint16(t.self)}, wb[:]); err != nil {
		return 0, err
	}
	if err := pc.flush(); err != nil {
		return 0, err
	}
	return s, nil
}

// meshFail handles a failed direct link on a worker. A dead mesh peer
// is not fatal for the fleet: report the suspect shard to the
// coordinator (frameFault on the hub), then park on the hub waiting
// for the rollback the coordinator will announce, skipping any hub
// frames of the broken attempt undecoded, and surface it as
// *rollbackError for the normal recovery path. If no rollback arrives
// within the drain window the failure is fatal.
//
// The fault report is what makes the park safe: the coordinator's only
// failure probe is the connection it is currently reading, and this
// worker's heartbeats keep that read alive — so when the coordinator
// happens to be blocked on the PARKED worker (the dead peer's hub
// frames arrived but its async mesh batch was lost with the process),
// a silent park deadlocks the fleet until the drain window expires and
// takes the survivor down with it. The report rides the stream the
// coordinator is already reading and names the shard to recover.
// Like a heartbeat it is written raw under wmu — unbatched, unhashed,
// and excluded from WireBytes — and best-effort: if the hub is dead
// too, the park fails out on its own. suspect 0 means the dead peer is
// unknown (a missing inbound dial at bring-up) and nothing is sent.
func (t *NetTransport) meshFail(suspect int, err error) error {
	if suspect > 0 {
		var fb [headerSize]byte
		putHeader(fb[:], frameHeader{Type: frameFault, From: uint16(t.self), To: uint16(suspect)})
		h := t.hub
		h.wmu.Lock()
		_ = h.c.SetWriteDeadline(time.Now().Add(t.timeout))
		_, _ = h.c.Write(fb[:])
		h.wmu.Unlock()
	}
	deadline := time.Now().Add(2 * t.timeout)
	for {
		_ = t.hub.c.SetReadDeadline(deadline)
		var hb [headerSize]byte
		if _, e := io.ReadFull(t.hub.br, hb[:]); e != nil {
			break
		}
		h, e := parseHeader(hb[:])
		if e != nil {
			break
		}
		if h.Type == frameRollback {
			return &rollbackError{generation: h.Round}
		}
		n, e := payloadLen(h)
		if e != nil {
			break
		}
		if n > 0 {
			if _, e := io.CopyN(io.Discard, t.hub.br, int64(n)); e != nil {
				break
			}
		}
	}
	return fmt.Errorf("mesh data plane: %w", err)
}

// endRoundMeshWorker is the worker barrier. Writes: one frameRound +
// frameCheck per direct peer, each handed to that connection's writer
// goroutine (flushAsync) so the next peer's batch is encoded while the
// previous one drains; then the shard-0 batch, the local tally, and
// the stream check on the hub. Reads: each direct peer's batch +
// check, then the coordinator's batch, the global tally, and its
// check. The batch to peer d is always enqueued before d is read — the
// per-peer write-then-read alternation — and delivery stays in global
// origin order (0..p−1), so mailbox order and every downstream
// decision are bit-identical to the in-process transports. At P = 2
// there are no direct peers and only the hub exchange runs.
func (t *NetTransport) endRoundMeshWorker(round int, local RoundTally) (RoundTally, error) {
	self, p := t.self, t.part.p
	for d := 1; d < p; d++ {
		if d == self {
			continue
		}
		pc := t.meshPeers[d]
		batch := t.x.takeRow(self, d)
		h := frameHeader{Type: frameRound, From: uint16(self), To: uint16(d), Round: uint32(round), Count: uint32(len(batch))}
		payload := t.encodeEnvelopes(batch)
		if err := pc.writeFrame(h, payload); err != nil {
			return RoundTally{}, t.meshFail(d, fmt.Errorf("link to shard %d: %w", d, err))
		}
		pc.retireBuf(payload)
		if err := pc.writeCheck(uint32(round)); err != nil {
			return RoundTally{}, t.meshFail(d, fmt.Errorf("link to shard %d: %w", d, err))
		}
		if err := pc.flushAsync(); err != nil {
			return RoundTally{}, t.meshFail(d, fmt.Errorf("link to shard %d: %w", d, err))
		}
	}
	batch := t.x.takeRow(self, 0)
	h := frameHeader{Type: frameRound, From: uint16(self), Round: uint32(round), Count: uint32(len(batch))}
	payload := t.encodeEnvelopes(batch)
	if err := t.hub.writeFrame(h, payload); err != nil {
		return RoundTally{}, err
	}
	t.hub.retireBuf(payload)
	var tb [tallySize]byte
	putTally(tb[:], local)
	if err := t.hub.writeFrame(frameHeader{Type: frameTally, From: uint16(self), Round: uint32(round)}, tb[:]); err != nil {
		return RoundTally{}, err
	}
	if err := t.hub.writeCheck(uint32(round)); err != nil {
		return RoundTally{}, err
	}
	if err := t.hub.flush(); err != nil {
		return RoundTally{}, err
	}

	// Read the inbound barrier raw and decode only after each stream's
	// checksum verifies: corrupted traffic is rejected, never
	// interpreted as messages.
	payloads := make([][]byte, p)
	for d := 1; d < p; d++ {
		if d == self {
			continue
		}
		pc := t.meshPeers[d]
		rh, payload, err := pc.readFrame(frameRound)
		if err != nil {
			return RoundTally{}, t.meshFail(d, fmt.Errorf("link to shard %d: %w", d, err))
		}
		if int(rh.From) != d || int(rh.To) != self || int(rh.Round) != round {
			return RoundTally{}, t.meshFail(d, fmt.Errorf("link to shard %d: misrouted batch %+v (want from %d to %d round %d)", d, rh, d, self, round))
		}
		payloads[d] = payload
		if err := pc.readCheck(uint32(round)); err != nil {
			return RoundTally{}, t.meshFail(d, fmt.Errorf("link to shard %d: %w", d, err))
		}
	}
	rh, payload, err := t.hub.readFrame(frameRound)
	if err != nil {
		return RoundTally{}, err
	}
	if rh.From != 0 || int(rh.To) != self || int(rh.Round) != round {
		return RoundTally{}, fmt.Errorf("misrouted batch %+v (want from 0 to %d round %d)", rh, self, round)
	}
	payloads[0] = payload
	th, tallyPayload, err := t.hub.readFrame(frameTally)
	if err != nil {
		return RoundTally{}, err
	}
	if int(th.Round) != round {
		return RoundTally{}, fmt.Errorf("global tally for round %d, want round %d", th.Round, round)
	}
	global := parseTally(tallyPayload)
	t.putBuf(tallyPayload)
	if err := t.hub.readCheck(uint32(round)); err != nil {
		return RoundTally{}, err
	}

	t.x.clearMailboxes(self)
	var discard RoundTally
	for d := 0; d < p; d++ {
		if d == self {
			t.x.deliverInto(&discard, t.x.takeRow(self, self))
			continue
		}
		t.x.deliverInto(&discard, t.decodeEnvelopes(payloads[d]))
		t.putBuf(payloads[d])
	}
	return global, nil
}

// endRoundMeshCoordinator is the coordinator barrier. Each worker's
// hub stream carries only its shard-0 batch, its local tally, and its
// stream check; the coordinator merges the tallies and writes back its
// own batch, the global tally, and its check per worker.
func (t *NetTransport) endRoundMeshCoordinator(round int, local RoundTally) (RoundTally, error) {
	p := t.part.p
	global := local
	payloads := make([][]byte, p)
	for w := 1; w < p; w++ {
		h, payload, err := t.peers[w].readFrame(frameRound)
		if err != nil {
			return RoundTally{}, t.peerFail(w, fmt.Errorf("reading shard %d: %w", w, err))
		}
		if int(h.From) != w || h.To != 0 || int(h.Round) != round {
			return RoundTally{}, t.peerFail(w, fmt.Errorf("bad batch header %+v from shard %d round %d", h, w, round))
		}
		payloads[w] = payload
		th, tb, err := t.peers[w].readFrame(frameTally)
		if err != nil {
			return RoundTally{}, t.peerFail(w, fmt.Errorf("reading shard %d tally: %w", w, err))
		}
		if int(th.From) != w || int(th.Round) != round {
			return RoundTally{}, t.peerFail(w, fmt.Errorf("bad tally header %+v from shard %d round %d", th, w, round))
		}
		wt := parseTally(tb)
		t.putBuf(tb)
		if err := t.peers[w].readCheck(uint32(round)); err != nil {
			return RoundTally{}, t.peerFail(w, fmt.Errorf("shard %d: %w", w, err))
		}
		global = mergeTallies([]RoundTally{global, wt})
	}
	var gtb [tallySize]byte
	putTally(gtb[:], global)
	for r := 1; r < p; r++ {
		payload := t.encodeEnvelopes(t.x.takeRow(0, r))
		h := frameHeader{Type: frameRound, To: uint16(r), Round: uint32(round), Count: uint32(len(payload) / envelopeSize)}
		if err := t.peers[r].writeFrame(h, payload); err != nil {
			return RoundTally{}, t.peerFail(r, err)
		}
		t.peers[r].retireBuf(payload)
		if err := t.peers[r].writeFrame(frameHeader{Type: frameTally, Round: uint32(round)}, gtb[:]); err != nil {
			return RoundTally{}, t.peerFail(r, err)
		}
		if err := t.peers[r].writeCheck(uint32(round)); err != nil {
			return RoundTally{}, t.peerFail(r, err)
		}
		if err := t.peers[r].flush(); err != nil {
			return RoundTally{}, t.peerFail(r, err)
		}
	}
	t.x.clearMailboxes(0)
	var discard RoundTally
	for d := 0; d < p; d++ {
		if d == 0 {
			t.x.deliverInto(&discard, t.x.takeRow(0, 0))
			continue
		}
		t.x.deliverInto(&discard, t.decodeEnvelopes(payloads[d]))
		t.putBuf(payloads[d])
	}
	return global, nil
}
