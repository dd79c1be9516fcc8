package dist

import (
	"encoding/binary"
	"fmt"
)

// The wire codec of the network transport: fixed-size little-endian
// frames, one frame per (origin shard, destination shard, round) batch
// plus small control frames for the round barrier's tallies and checks
// and the loop-control reductions. Every frame is a 20-byte header
// followed by `count` fixed-size records (or `count` raw bytes for blob
// frames), so a reader knows every payload's length from the header
// alone and a fuzzer can exercise the codec record by record.
//
// A round batch holds 28-byte records of two forms, told apart by
// byte 25:
//
//	[0:4)   recipient vertex (envelope) | live-edge count (post)
//	[4:8)   From: the sending vertex
//	[8:12)  Port: the edge's global id (envelope) | 0 (post)
//	[12:24) payload words A, B, C
//	[24]    kind
//	[25]    form: recordEnvelope or recordPost
//	[26:28) zero
//
// An envelope is one message over one edge. A post is one vertex's
// neighbour-exchange word (MsgCenter, MsgNewCenter) for every live
// edge it has into the destination shard, and its count is the number
// of those edges, which the receiver checks against its own view. A
// batch lists its envelopes, then its posts.

const (
	wireMagic = uint32(0x44573031) // "DW01": distworker wire
	// wireVersion 2 appended the liveness/recovery frames (heartbeat,
	// checksum, rollback, rollback-ack) to v1's frame set; version 3
	// appends the full-mesh data-plane frames (mesh address
	// announcement, peer hello/welcome); version 4 appends the
	// coordinator-failover standby-address frame, the mesh fault-report
	// frame, and the failover bit of the hello/welcome flags; version 5
	// retires the coordinator-relayed star plane — the full mesh is the
	// only data plane, so the mesh bit of the hello flags is gone and a
	// v4 process, which might expect a relay, is refused at hello;
	// version 6 retires the standby-address frame — a failover worker's
	// peer listener doubles as its standby hub, so it announces one
	// address (even at P = 2) and the coordinator broadcasts one book,
	// after the job header and checkpoint; version 7 makes the round
	// barrier symmetric — every shard sends every other its LOCAL tally
	// and sums them itself, so a coordinator's tally frame no longer
	// carries the global tally a v6 worker would bill, and the direct
	// worker links carry tally frames too; version 8 adds the post form
	// of a round-batch record (byte 25, see above): the neighbour
	// exchanges cross each link once per (poster, destination shard)
	// instead of once per edge, and a v7 process would read a post as
	// an envelope. Existing frame encodings are never mutated — new
	// types are appended and the version is bumped, so a mixed-version
	// fleet fails loudly at the hello handshake instead of
	// desynchronizing mid-run.
	wireVersion = uint32(8)

	headerSize   = 20
	envelopeSize = 28
	tallySize    = 40
	helloSize    = 20
	checkSize    = 4
)

// Frame types. Append only: reusing or renumbering a type is a wire
// version break.
const (
	frameHello   uint8 = iota + 1 // worker → coordinator: join request
	frameWelcome                  // coordinator → worker: join accepted
	frameRound                    // one origin→destination message batch
	frameTally                    // the sender's local round tally, sent to every other shard
	frameMax                      // AllMaxInt32 contribution / result
	frameOr                       // AllOrWord contribution / result (Count=1, one 8-byte word)
	frameBlob                     // opaque application payload (gather/broadcast)
	frameGather                   // AllGatherInt32s contribution / merged result
	// v2 liveness/recovery frames:
	frameHeartbeat   // either direction: liveness while the peer computes; no payload
	frameCheck       // running CRC-32C of the data frames since the last check (Round = engine round)
	frameRollback    // coordinator → worker: abort the attempt; Round = recovery generation
	frameRollbackAck // worker → coordinator: attempt unwound; Round echoes the generation
	// v3 full-mesh data-plane frames:
	frameMeshAddr    // worker → coordinator, after hello: this shard's peer listen address (Count raw bytes)
	frameMeshHello   // dialing worker → accepting worker: open a direct data link (hello payload)
	frameMeshWelcome // accepting worker → dialing worker: link accepted (hello payload)
	// v4 coordinator-failover frames:
	_          // reserved: v4–v5's standby hub address, retired in v6
	frameFault // worker → coordinator: my direct link to shard To died; attribute the failure there (no payload)
)

// Capability flags of the hello/welcome handshake. They ride the
// otherwise-unused Round field of the hello/welcome frame headers, so
// the hello payload encoding stays fixed, and both sides require an
// exact match — a fleet that mixes failover-armed with failover-less
// processes fails loudly at the handshake instead of desynchronizing
// on the peer-address frame a failover worker sends even at P = 2.
// Bit 1 was the v3–v4 mesh-plane bit; v5 retired it with the star
// plane.
const helloFlagFailover = 2 // v4: coordinator failover armed (frameMeshAddr follows at any P)

// frameHeader describes one frame on the wire.
type frameHeader struct {
	Type  uint8
	From  uint16 // origin shard
	To    uint16 // destination shard (frameRound; otherwise 0)
	Round uint32
	Count uint32 // record count (frameRound, frameOr, frameGather) or byte length (frameBlob, frameMeshAddr)
}

// putHeader encodes h into b (len ≥ headerSize).
func putHeader(b []byte, h frameHeader) {
	binary.LittleEndian.PutUint32(b[0:], wireMagic)
	b[4] = h.Type
	b[5] = 0
	binary.LittleEndian.PutUint16(b[6:], h.From)
	binary.LittleEndian.PutUint16(b[8:], h.To)
	binary.LittleEndian.PutUint16(b[10:], 0)
	binary.LittleEndian.PutUint32(b[12:], h.Round)
	binary.LittleEndian.PutUint32(b[16:], h.Count)
}

// parseHeader decodes and validates a frame header.
func parseHeader(b []byte) (frameHeader, error) {
	if len(b) < headerSize {
		return frameHeader{}, fmt.Errorf("dist: short frame header (%d bytes)", len(b))
	}
	if binary.LittleEndian.Uint32(b[0:]) != wireMagic {
		return frameHeader{}, fmt.Errorf("dist: bad frame magic %#x", binary.LittleEndian.Uint32(b[0:]))
	}
	return frameHeader{
		Type:  b[4],
		From:  binary.LittleEndian.Uint16(b[6:]),
		To:    binary.LittleEndian.Uint16(b[8:]),
		Round: binary.LittleEndian.Uint32(b[12:]),
		Count: binary.LittleEndian.Uint32(b[16:]),
	}, nil
}

// Round-batch record forms (byte 25 of a record).
const (
	recordEnvelope uint8 = iota // one message for one vertex over one edge
	recordPost                  // one vertex's post, for count live edges (v8)
)

// postRecord is a post on the wire: the poster's message (From, Kind,
// A, B, C; no Port) and the number of the poster's live edges into the
// destination shard.
type postRecord struct {
	count int32
	m     Message
}

// putEnvelope encodes one addressed message into b (len ≥ envelopeSize).
func putEnvelope(b []byte, env envelope) {
	putRecord(b, env.to, env.m, recordEnvelope)
}

// putPost encodes one post record into b (len ≥ envelopeSize); the
// message's Port is not sent.
func putPost(b []byte, p postRecord) {
	m := p.m
	m.Port = 0
	putRecord(b, p.count, m, recordPost)
}

func putRecord(b []byte, to int32, m Message, form uint8) {
	binary.LittleEndian.PutUint32(b[0:], uint32(to))
	binary.LittleEndian.PutUint32(b[4:], uint32(m.From))
	binary.LittleEndian.PutUint32(b[8:], uint32(m.Port))
	binary.LittleEndian.PutUint32(b[12:], uint32(m.A))
	binary.LittleEndian.PutUint32(b[16:], uint32(m.B))
	binary.LittleEndian.PutUint32(b[20:], uint32(m.C))
	b[24] = byte(m.Kind)
	b[25], b[26], b[27] = form, 0, 0
}

// recordForm returns the form byte of the record at b.
func recordForm(b []byte) uint8 { return b[25] }

// parseEnvelope decodes one addressed message from b (len ≥ envelopeSize).
func parseEnvelope(b []byte) envelope {
	return envelope{
		to: int32(binary.LittleEndian.Uint32(b[0:])),
		m: Message{
			From: int32(binary.LittleEndian.Uint32(b[4:])),
			Port: int32(binary.LittleEndian.Uint32(b[8:])),
			A:    int32(binary.LittleEndian.Uint32(b[12:])),
			B:    int32(binary.LittleEndian.Uint32(b[16:])),
			C:    int32(binary.LittleEndian.Uint32(b[20:])),
			Kind: MsgKind(b[24]),
		},
	}
}

// parsePost decodes one post record from b (len ≥ envelopeSize).
func parsePost(b []byte) postRecord {
	env := parseEnvelope(b)
	return postRecord{count: env.to, m: env.m}
}

// putTally / parseTally encode a RoundTally (tallySize bytes).
func putTally(b []byte, t RoundTally) {
	binary.LittleEndian.PutUint64(b[0:], uint64(t.Messages))
	binary.LittleEndian.PutUint64(b[8:], uint64(t.Words))
	binary.LittleEndian.PutUint64(b[16:], uint64(t.CrossShardMessages))
	binary.LittleEndian.PutUint64(b[24:], uint64(t.CrossShardWords))
	binary.LittleEndian.PutUint32(b[32:], uint32(t.MaxMessageWords))
	binary.LittleEndian.PutUint32(b[36:], 0)
}

func parseTally(b []byte) RoundTally {
	return RoundTally{
		Messages:           int64(binary.LittleEndian.Uint64(b[0:])),
		Words:              int64(binary.LittleEndian.Uint64(b[8:])),
		CrossShardMessages: int64(binary.LittleEndian.Uint64(b[16:])),
		CrossShardWords:    int64(binary.LittleEndian.Uint64(b[24:])),
		MaxMessageWords:    int(int32(binary.LittleEndian.Uint32(b[32:]))),
	}
}

// hello is the join handshake payload: both sides must agree on the
// protocol, the vertex count, and the partition before any round runs.
type hello struct {
	Version uint32
	N       uint64
	Shard   uint32
	Shards  uint32
}

func putHello(b []byte, h hello) {
	binary.LittleEndian.PutUint32(b[0:], h.Version)
	binary.LittleEndian.PutUint64(b[4:], h.N)
	binary.LittleEndian.PutUint32(b[12:], h.Shard)
	binary.LittleEndian.PutUint32(b[16:], h.Shards)
}

func parseHello(b []byte) hello {
	return hello{
		Version: binary.LittleEndian.Uint32(b[0:]),
		N:       binary.LittleEndian.Uint64(b[4:]),
		Shard:   binary.LittleEndian.Uint32(b[12:]),
		Shards:  binary.LittleEndian.Uint32(b[16:]),
	}
}
