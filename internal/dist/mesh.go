package dist

// The full-mesh data plane of the network transport: workers dial each
// other directly and exchange their round batches peer-to-peer, so a
// cross-shard batch crosses the wire exactly once and shard 0 carries
// only its own batches — the direct-neighbour model of the paper's
// distributed bounds, billed once per link. The hub connections carry
// the coordinator's batches and everything else — the join handshake,
// collectives, blobs, and the recovery protocol. Every link, hub or
// direct, carries the same barrier frames: each round both ends send
// each other a batch, a local tally, and a stream check (EndRound). At
// P ≤ 2 no worker has a direct peer, so there are no direct links.
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
// CRC-32C stream checksum cross-checked at every barrier, and one
// pending byte buffer written by the link's one writer goroutine.
//
// On every link the barrier double-buffers: flushAsync hands the
// link's pending bytes to its writer and returns, so the round
// goroutine encodes the next peer's batch (and, across barriers,
// computes round r+1) into a fresh buffer while round r's bytes drain
// to the kernel. The write-then-read alternation that keeps the
// protocol deadlock-free is preserved per peer: a shard hands its
// batch for peer d to d's writer before it reads from d, and the
// synchronous operations (collectives, handshakes) queue behind it on
// the same writer and wait for their own write, so on any single
// connection the byte order is exactly the per-frame protocol's.
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

// maxMeshAddrLen bounds an announced peer listener address.
const maxMeshAddrLen = 512

// peerListened reports whether workers bind, announce, and receive the
// book of peer listeners: for the direct links at p > 2 (with p ≤ 2 no
// worker has a direct peer), and as the failover standby hub whenever
// failover is armed.
func (t *NetTransport) peerListened() bool { return t.part.p > 2 || t.failover }

// teardownMesh aborts every direct worker↔worker link on a recovery
// rollback. The peer listener stays open: its address —
// announced once at the join handshake — remains valid in the
// coordinator's book across attempts, and only a respawned shard
// announces a new one.
func (t *NetTransport) teardownMesh() {
	for s := 1; s < len(t.links); s++ {
		if pc := t.links[s]; pc != nil {
			pc.abort()
			t.links[s] = nil
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
	for d := 1; d < t.self; d++ {
		c, err := net.DialTimeout("tcp", book[d], t.timeout)
		if err != nil {
			return t.meshFail(d, fmt.Errorf("dialing shard %d at %q: %w", d, book[d], err))
		}
		pc := newPeerConn(t, c)
		var hb [helloSize]byte
		putHello(hb[:], hello{Version: wireVersion, N: uint64(t.part.n), Shard: uint32(t.self), Shards: uint32(p)})
		pc.writeFrame(frameHeader{Type: frameMeshHello, From: uint16(t.self)}, hb[:])
		if err := pc.flush(); err != nil {
			pc.abort()
			return t.meshFail(d, fmt.Errorf("shard %d handshake: %w", d, err))
		}
		_, payload, err := pc.readFrame(frameMeshWelcome)
		if err != nil {
			pc.abort()
			return t.meshFail(d, fmt.Errorf("shard %d handshake: %w", d, err))
		}
		got := parseHello(payload)
		t.putBuf(payload)
		if got.Version != wireVersion || got.N != uint64(t.part.n) || got.Shards != uint32(p) || int(got.Shard) != d {
			pc.abort()
			return t.meshFail(d, fmt.Errorf("shard %d peer config mismatch: %+v", d, got))
		}
		pc.linkUp()
		t.links[d] = pc
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
			pc.abort()
			continue
		}
		t.links[s] = pc
		pc.linkUp()
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
	if s <= t.self || s >= t.part.p || t.links[s] != nil {
		return 0, fmt.Errorf("dist: bad or duplicate mesh peer shard %d", s)
	}
	var wb [helloSize]byte
	putHello(wb[:], hello{Version: wireVersion, N: uint64(t.part.n), Shard: uint32(t.self), Shards: uint32(t.part.p)})
	pc.writeFrame(frameHeader{Type: frameMeshWelcome, From: uint16(t.self)}, wb[:])
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
// Like a heartbeat it is written by the hub's writer on its own, as a
// buffer of one header — unbatched, unhashed, and excluded from
// WireBytes — and best-effort: if the hub is dead too, the park fails
// out on its own. suspect 0 means the dead peer is unknown (a missing
// inbound dial at bring-up) and nothing is sent.
func (t *NetTransport) meshFail(suspect int, err error) error {
	hub := t.links[0]
	if suspect > 0 {
		fb := make([]byte, headerSize)
		putHeader(fb, frameHeader{Type: frameFault, From: uint16(t.self), To: uint16(suspect)})
		hub.hand(fb)
	}
	deadline := time.Now().Add(2 * t.timeout)
	for {
		_ = hub.c.SetReadDeadline(deadline)
		var hb [headerSize]byte
		if _, e := io.ReadFull(hub.br, hb[:]); e != nil {
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
			if _, e := io.CopyN(io.Discard, hub.br, int64(n)); e != nil {
				break
			}
		}
	}
	return fmt.Errorf("mesh data plane: %w", err)
}
