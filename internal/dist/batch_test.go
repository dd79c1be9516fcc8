package dist

// Tests pinning the write side of a link: the frames appended to its
// pending byte buffer and written by its one writer goroutine must put
// the exact bytes of the per-frame protocol on the wire, whether each
// flush waits for its write or hands it over and moves on (WireBytes
// and CRC-32C are taken at append time, so any drift here would
// desynchronize the stream checksums); the read side must reassemble
// frames whose bytes arrive split at arbitrary positions, with
// heartbeats interleaved mid-stream; and one barrier whose batches
// exceed the socket buffers in both directions of every link must not
// wedge.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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

type testFrame struct {
	h       frameHeader
	payload []byte
}

// testFrames is a representative protocol slice: two round batches
// (one empty — zero-payload frames must survive batching too), a
// gather, and a tally.
func testFrames() []testFrame {
	envs := make([]byte, 3*envelopeSize)
	for i := 0; i < 3; i++ {
		putEnvelope(envs[i*envelopeSize:], envelope{to: int32(i), m: Message{From: int32(10 + i), Kind: MsgCenter, A: 1, B: 2, C: 3}})
	}
	var tally [tallySize]byte
	putTally(tally[:], RoundTally{Messages: 3, Words: 9})
	return []testFrame{
		{frameHeader{Type: frameRound, From: 1, To: 2, Round: 7, Count: 3}, envs},
		{frameHeader{Type: frameRound, From: 1, To: 0, Round: 7, Count: 0}, nil},
		{frameHeader{Type: frameGather, From: 1, Round: 7, Count: 2}, []byte{1, 0, 0, 0, 2, 0, 0, 0}},
		{frameHeader{Type: frameTally, From: 1, Round: 7}, tally[:]},
	}
}

// writeTestFrames appends the test frames to p and seals them with the
// stream-checksum frame.
func writeTestFrames(p *peerConn) {
	for _, fr := range testFrames() {
		p.writeFrame(fr.h, fr.payload)
	}
	p.writeCheck(7)
}

// referenceStream is the per-frame protocol's encoding of what
// writeTestFrames writes, built without a link: each header followed
// by its payload, then a check frame carrying the CRC-32C of them all.
func referenceStream() []byte {
	var out []byte
	var sum uint32
	for _, fr := range testFrames() {
		var hb [headerSize]byte
		putHeader(hb[:], fr.h)
		sum = crc32.Update(crc32.Update(sum, crcTable, hb[:]), crcTable, fr.payload)
		out = append(append(out, hb[:]...), fr.payload...)
	}
	var hb [headerSize]byte
	putHeader(hb[:], frameHeader{Type: frameCheck, Round: 7, Count: checkSize})
	return binary.LittleEndian.AppendUint32(append(out, hb[:]...), sum)
}

// TestBatchedFlushBytesIdentical: batching is a syscall optimization,
// not a format change — nothing reaches the socket before the flush,
// the flushed stream must be byte-for-byte the per-frame reference,
// WireBytes must equal the stream length, the flush must leave nothing
// pending, and one more flush must be a no-op.
func TestBatchedFlushBytesIdentical(t *testing.T) {
	tr := &NetTransport{timeout: time.Second}
	conn := &memConn{}
	p := newPeerConn(tr, conn)
	defer p.close()
	writeTestFrames(p)
	if conn.wr.Len() != 0 {
		t.Fatalf("frames hit the wire before flush: %d bytes", conn.wr.Len())
	}
	if err := p.flush(); err != nil {
		t.Fatal(err)
	}
	got := append([]byte(nil), conn.wr.Bytes()...)
	if ref := referenceStream(); !bytes.Equal(got, ref) {
		t.Fatalf("batched stream differs from reference: %d vs %d bytes", len(got), len(ref))
	}
	if tr.wireBytes != int64(len(got)) {
		t.Fatalf("WireBytes %d != stream length %d", tr.wireBytes, len(got))
	}
	if len(p.out) != 0 {
		t.Fatalf("flush left %d bytes pending", len(p.out))
	}
	if err := p.flush(); err != nil {
		t.Fatal(err)
	}
	if conn.wr.Len() != len(got) {
		t.Fatal("empty flush wrote bytes")
	}
}

// TestAsyncFlushBytesIdentical: handing batches to the writer round
// after round without waiting is a scheduling change, not a format
// change — the stream must be the per-frame reference repeated, in
// order, with a waiting flush after the handed-over ones queued behind
// them.
func TestAsyncFlushBytesIdentical(t *testing.T) {
	tr := &NetTransport{timeout: time.Second}
	conn := &memConn{}
	p := newPeerConn(tr, conn)
	const rounds = 20 // > writerDepth, so flushes wait for old writes and buffers are reused
	for r := 0; r < rounds; r++ {
		writeTestFrames(p)
		if err := p.flushAsync(); err != nil {
			t.Fatal(err)
		}
	}
	writeTestFrames(p)
	if err := p.flush(); err != nil {
		t.Fatal(err)
	}
	p.close()
	want := bytes.Repeat(referenceStream(), rounds+1)
	if got := conn.wr.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("async stream differs from reference: %d vs %d bytes", len(got), len(want))
	}
	if tr.wireBytes != int64(len(want)) {
		t.Fatalf("WireBytes %d != stream length %d", tr.wireBytes, len(want))
	}
}

// TestReadFrameReassemblesChunkedBatch: the receive side must
// reconstruct every frame of a batch regardless of how the kernel
// fragments it — byte at a time, split inside headers, split inside
// payloads — with heartbeats spliced between frames (the writer sends
// them between the buffers it is handed, and a reader must not care
// where), and the sealed checksum must still verify.
func TestReadFrameReassemblesChunkedBatch(t *testing.T) {
	stream := referenceStream()

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
		t.Cleanup(r.abort)

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
				tr.Send(int32(dlo+i%dsize), Message{Kind: MsgDrop, From: int32(lo + i%size), A: int32(s), B: int32(i)})
			}
		}
		tallies[s] = tr.EndRound(0)
		for v := lo; v < lo+size; v++ {
			box, k := tr.Recv(int32(v)), 0
			for o := 0; o < p; o++ {
				for i := v - lo; o != s && i < perPeer; i += size {
					want := Message{Kind: MsgDrop, From: int32(bounds[o] + i%(bounds[o+1]-bounds[o])), A: int32(o), B: int32(i)}
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
	// A MsgDrop is one word.
	want := RoundTally{Messages: msgs, Words: msgs, MaxMessageWords: 1, CrossShardMessages: msgs, CrossShardWords: msgs}
	for s, got := range tallies {
		if got != want {
			t.Fatalf("shard %d billed %+v, want %+v", s, got, want)
		}
	}
}
