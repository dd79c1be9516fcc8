package dist

// Tests pinning the vectored-write batching of the wire layer: a
// flushed batch must put the exact same bytes on the wire as the
// per-frame protocol did (WireBytes and CRC-32C are computed at append
// time, so any drift here would desynchronize the stream checksums),
// and the read side must reassemble frames whose bytes arrive split at
// arbitrary positions — including batch boundaries and heartbeats
// interleaved mid-stream by the asynchronous liveness sender.

import (
	"bytes"
	"fmt"
	"net"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/graph"
)

// memConn is an in-memory net.Conn half: writes append to wr, reads
// serve from rd in chunks of at most chunk bytes (0 = unlimited),
// exercising short reads the way a congested socket would.
type memConn struct {
	wr    bytes.Buffer
	rd    *bytes.Reader
	chunk int
}

func (c *memConn) Write(b []byte) (int, error) { return c.wr.Write(b) }
func (c *memConn) Read(b []byte) (int, error) {
	if c.chunk > 0 && len(b) > c.chunk {
		b = b[:c.chunk]
	}
	return c.rd.Read(b)
}
func (c *memConn) Close() error                       { return nil }
func (c *memConn) LocalAddr() net.Addr                { return nil }
func (c *memConn) RemoteAddr() net.Addr               { return nil }
func (c *memConn) SetDeadline(t time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(t time.Time) error { return nil }

// testFrames is a representative protocol slice: two round batches
// (one empty — zero-payload frames must survive batching too), a
// gather, a tally, and the stream-checksum frame sealing them.
func writeTestFrames(t *testing.T, p *peerConn) {
	t.Helper()
	envs := make([]byte, 3*envelopeSize)
	for i := 0; i < 3; i++ {
		putEnvelope(envs[i*envelopeSize:], envelope{to: int32(i), m: Message{From: int32(10 + i), Kind: MsgCenter, A: 1, B: 2, C: 3}})
	}
	var tally [tallySize]byte
	putTally(tally[:], RoundTally{Messages: 3, Words: 9})
	gather := []byte{1, 0, 0, 0, 2, 0, 0, 0}
	for _, fr := range []struct {
		h       frameHeader
		payload []byte
	}{
		{frameHeader{Type: frameRound, From: 1, To: 2, Round: 7, Count: 3}, envs},
		{frameHeader{Type: frameRound, From: 1, To: 0, Round: 7, Count: 0}, nil},
		{frameHeader{Type: frameGather, From: 1, Round: 7, Count: 2}, gather},
		{frameHeader{Type: frameTally, From: 1, Round: 7}, tally[:]},
	} {
		if err := p.writeFrame(fr.h, fr.payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.writeCheck(7); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedFlushBytesIdentical: batching is a syscall optimization,
// not a format change — the flushed stream must be byte-for-byte the
// per-frame concatenation, WireBytes must equal the stream length, and
// one more flush must be a no-op.
func TestBatchedFlushBytesIdentical(t *testing.T) {
	tr := &NetTransport{timeout: time.Second}
	conn := &memConn{}
	p := newPeerConn(tr, conn)
	writeTestFrames(t, p)
	if conn.wr.Len() != 0 {
		t.Fatalf("frames hit the wire before flush: %d bytes", conn.wr.Len())
	}
	if err := p.flush(); err != nil {
		t.Fatal(err)
	}
	got := append([]byte(nil), conn.wr.Bytes()...)

	// The reference stream: the same frames written through an
	// independent peer, flushed one at a time (per-frame protocol).
	refTr := &NetTransport{timeout: time.Second}
	refConn := &memConn{}
	ref := newPeerConn(refTr, refConn)
	writeTestFrames(t, ref)
	if err := ref.flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, refConn.wr.Bytes()) {
		t.Fatalf("batched stream differs from reference: %d vs %d bytes", len(got), refConn.wr.Len())
	}
	if tr.wireBytes != int64(len(got)) {
		t.Fatalf("WireBytes %d != stream length %d", tr.wireBytes, len(got))
	}
	if len(p.pending) != 0 || p.pendingBytes != 0 || p.hdrUsed != 0 {
		t.Fatalf("flush left pending state: %d slices, %d bytes, %d headers", len(p.pending), p.pendingBytes, p.hdrUsed)
	}
	before := conn.wr.Len()
	if err := p.flush(); err != nil {
		t.Fatal(err)
	}
	if conn.wr.Len() != before {
		t.Fatal("empty flush wrote bytes")
	}
}

// TestAsyncFlushBytesIdentical: the mesh plane's double-buffered
// writer is a scheduling change, not a format change — handing batches
// to the writer goroutine round after round must put the exact same
// bytes on the wire, in the same order, as the synchronous per-flush
// protocol, and a sync flush after async traffic must first drain the
// writer so per-connection byte order is preserved.
func TestAsyncFlushBytesIdentical(t *testing.T) {
	tr := &NetTransport{timeout: time.Second}
	conn := &memConn{}
	p := newPeerConn(tr, conn)
	const rounds = 20 // > asyncWriterDepth, so enqueue back-pressure and batch recycling both run
	for r := 0; r < rounds; r++ {
		writeTestFrames(t, p)
		if err := p.flushAsync(); err != nil {
			t.Fatal(err)
		}
	}
	writeTestFrames(t, p) // final batch goes through the sync path, which must drain first
	if err := p.flush(); err != nil {
		t.Fatal(err)
	}
	p.stopWriter()
	got := append([]byte(nil), conn.wr.Bytes()...)

	refTr := &NetTransport{timeout: time.Second}
	refConn := &memConn{}
	ref := newPeerConn(refTr, refConn)
	for r := 0; r < rounds+1; r++ {
		writeTestFrames(t, ref)
		if err := ref.flush(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, refConn.wr.Bytes()) {
		t.Fatalf("async stream differs from sync reference: %d vs %d bytes", len(got), refConn.wr.Len())
	}
	if tr.wireBytes != refTr.wireBytes {
		t.Fatalf("WireBytes %d != sync reference %d", tr.wireBytes, refTr.wireBytes)
	}
}

// TestReadFrameReassemblesChunkedBatch: the receive side must
// reconstruct every frame of a batch regardless of how the kernel
// fragments it — byte at a time, split inside headers, split inside
// payloads — with heartbeats spliced between frames (the liveness
// sender writes them under wmu whenever it fires, so they can land at
// any frame boundary of the stream), and the sealed checksum must
// still verify.
func TestReadFrameReassemblesChunkedBatch(t *testing.T) {
	wtr := &NetTransport{timeout: time.Second}
	wconn := &memConn{}
	w := newPeerConn(wtr, wconn)
	writeTestFrames(t, w)
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	stream := wconn.wr.Bytes()

	// Splice a heartbeat before the batch and between the two round
	// frames (offset: header + 3 envelopes + the empty frame's header).
	var hb [headerSize]byte
	putHeader(hb[:], frameHeader{Type: frameHeartbeat})
	cut := headerSize + 3*envelopeSize + headerSize
	spliced := append([]byte(nil), hb[:]...)
	spliced = append(spliced, stream[:cut]...)
	spliced = append(spliced, hb[:]...)
	spliced = append(spliced, stream[cut:]...)

	for _, chunk := range []int{1, 3, 7, headerSize - 1, 1 << 16} {
		rtr := &NetTransport{timeout: time.Second}
		rconn := &memConn{rd: bytes.NewReader(spliced), chunk: chunk}
		r := newPeerConn(rtr, rconn)

		h, payload, err := r.readFrame(frameRound)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if h.Count != 3 || len(payload) != 3*envelopeSize {
			t.Fatalf("chunk %d: first round frame %+v len %d", chunk, h, len(payload))
		}
		if env := parseEnvelope(payload[envelopeSize:]); env.to != 1 || env.m.From != 11 {
			t.Fatalf("chunk %d: envelope mangled: %+v", chunk, env)
		}
		if h, payload, err = r.readFrame(frameRound); err != nil || h.Count != 0 || len(payload) != 0 {
			t.Fatalf("chunk %d: empty round frame: %+v len %d err %v", chunk, h, len(payload), err)
		}
		if h, payload, err = r.readFrame(frameGather); err != nil || h.Count != 2 {
			t.Fatalf("chunk %d: gather frame: %+v err %v", chunk, h, err)
		}
		if ids := parseInt32s(payload); len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
			t.Fatalf("chunk %d: gather payload %v", chunk, ids)
		}
		if _, payload, err = r.readFrame(frameTally); err != nil {
			t.Fatalf("chunk %d: tally frame: %v", chunk, err)
		}
		if tl := parseTally(payload); tl.Messages != 3 || tl.Words != 9 {
			t.Fatalf("chunk %d: tally mangled: %+v", chunk, tl)
		}
		if err := r.readCheck(7); err != nil {
			t.Fatalf("chunk %d: stream checksum across chunked reassembly: %v", chunk, err)
		}
	}
}

// TestEndRoundBatchesLargerThanSocketBuffers runs one barrier in which
// every shard owes every other shard a 28 MiB batch, far more than a
// loopback socket buffers, so both directions of every link carry more
// than the kernel holds at once. A barrier that wrote a link
// synchronously before reading the other side's batch would wedge
// until the 5 s frame timeout. Every mailbox must hold its messages in
// origin order, and every process must bill the same tally.
func TestEndRoundBatchesLargerThanSocketBuffers(t *testing.T) {
	for _, p := range []int{2, 3} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) { bigBarrier(t, p) })
	}
}

// bigBarrier runs one such barrier on a P-shard fleet over loopback.
// A P = 3 fleet holds about 1 GB, 3 GB under the race detector; the
// memory goes back to the OS before the next fleet, so -count runs do
// not pile up.
func bigBarrier(t *testing.T, p int) {
	const n, perPeer = 3000, 1 << 20
	defer debug.FreeOSMemory()
	bounds := graph.ShardBounds(n, p)
	tallies := make([]RoundTally, p)
	err := runFleet(n, p, 5*time.Second, func(tr *NetTransport) (err error) {
		defer recoverNetError(&err)
		s := tr.Shard()
		if err := tr.WaitReady(); err != nil {
			return err
		}
		if err := tr.setupDataPlane(); err != nil {
			return err
		}
		lo, size := bounds[s], bounds[s+1]-bounds[s]
		for d := 0; d < p; d++ {
			dlo, dsize := bounds[d], bounds[d+1]-bounds[d]
			for i := 0; d != s && i < perPeer; i++ {
				tr.Send(int32(dlo+i%dsize), Message{Kind: MsgCenter, From: int32(lo + i%size), A: int32(s), B: int32(i)})
			}
		}
		tallies[s] = tr.EndRound(0)
		for v := lo; v < lo+size; v++ {
			box, k := tr.Recv(int32(v)), 0
			for o := 0; o < p; o++ {
				for i := v - lo; o != s && i < perPeer; i += size {
					want := Message{Kind: MsgCenter, From: int32(bounds[o] + i%(bounds[o+1]-bounds[o])), A: int32(o), B: int32(i)}
					if k >= len(box) || box[k] != want {
						return fmt.Errorf("shard %d: vertex %d message %d is not %+v", s, v, k, want)
					}
					k++
				}
			}
			if k != len(box) {
				return fmt.Errorf("shard %d: vertex %d got %d messages, want %d", s, v, len(box), k)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs := int64(p * (p - 1) * perPeer)
	want := RoundTally{Messages: msgs, Words: msgs * int64(MsgCenter.Words()), MaxMessageWords: MsgCenter.Words(),
		CrossShardMessages: msgs, CrossShardWords: msgs * int64(MsgCenter.Words())}
	for s, got := range tallies {
		if got != want {
			t.Fatalf("shard %d billed %+v, want %+v", s, got, want)
		}
	}
}
