package dist

import (
	"bytes"
	"testing"
)

// TestEnvelopeCodecRoundTrip: every field of an addressed message
// survives the fixed-size record encoding.
func TestEnvelopeCodecRoundTrip(t *testing.T) {
	cases := []envelope{
		{to: 0, m: Message{From: -1, Port: 0, Kind: MsgSampled, A: 1}},
		{to: 1 << 30, m: Message{From: 7, Port: -3, Kind: MsgCenter, A: -1, B: 2, C: 3}},
		{to: 42, m: Message{From: 41, Port: 9, Kind: MsgKeep, A: 0, B: -9, C: 1 << 20}},
	}
	var b [envelopeSize]byte
	for _, env := range cases {
		putEnvelope(b[:], env)
		if got := parseEnvelope(b[:]); got != env {
			t.Fatalf("round trip mangled %+v -> %+v", env, got)
		}
	}
}

// TestHeaderCodecRoundTrip: headers survive, and a corrupted magic is
// rejected.
func TestHeaderCodecRoundTrip(t *testing.T) {
	h := frameHeader{Type: frameRound, From: 3, To: 250, Round: 123456, Count: 99}
	var b [headerSize]byte
	putHeader(b[:], h)
	got, err := parseHeader(b[:])
	if err != nil || got != h {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
	b[0] ^= 0xff
	if _, err := parseHeader(b[:]); err == nil {
		t.Fatal("corrupted magic accepted")
	}
	if _, err := parseHeader(b[:4]); err == nil {
		t.Fatal("short header accepted")
	}
}

// TestTallyCodecRoundTrip covers the round barrier's tally payload.
func TestTallyCodecRoundTrip(t *testing.T) {
	tally := RoundTally{Messages: 1 << 40, Words: 3 << 41, MaxMessageWords: 3,
		CrossShardMessages: 17, CrossShardWords: 51}
	var b [tallySize]byte
	putTally(b[:], tally)
	if got := parseTally(b[:]); got != tally {
		t.Fatalf("round trip mangled %+v -> %+v", tally, got)
	}
}

// FuzzMessageCodec: both forms of the round-batch record codec are
// bijections between their struct and their canonical byte form —
// decode(encode(x)) == x for any field values (a post sends no Port),
// encode(decode(b)) is stable, and the form byte tells the two apart.
func FuzzMessageCodec(f *testing.F) {
	f.Add(int32(0), int32(-1), int32(0), uint8(0), int32(1), int32(0), int32(0), false)
	f.Add(int32(99), int32(3), int32(12), uint8(1), int32(-5), int32(7), int32(1), false)
	f.Add(int32(-8), int32(1<<30), int32(-1<<30), uint8(255), int32(0), int32(0), int32(-1), false)
	// Batched writes concatenate frames, so envelope payload bytes sit
	// directly against the next frame's header on the wire. These seeds
	// put the frame magic ("DW01") and a heartbeat-header prefix INSIDE
	// envelope fields: a decoder that resynchronized on magic instead of
	// trusting frame lengths would split such a batch mid-record.
	f.Add(int32(wireMagic), int32(wireMagic), int32(0), uint8(frameRound), int32(wireMagic), int32(0), int32(wireMagic), false)
	f.Add(int32(wireMagic), int32(frameHeartbeat), int32(wireMagic), uint8(frameHeartbeat), int32(0), int32(wireMagic), int32(-1), false)
	// Post records: a MsgCenter post counting 3 live edges, a
	// MsgNewCenter post, and one with the frame magic in its count and
	// payload.
	f.Add(int32(3), int32(70), int32(0), uint8(MsgCenter), int32(5), int32(2), int32(1), true)
	f.Add(int32(1), int32(4095), int32(0), uint8(MsgNewCenter), int32(17), int32(0), int32(0), true)
	f.Add(int32(wireMagic), int32(wireMagic), int32(wireMagic), uint8(frameRound), int32(wireMagic), int32(0), int32(wireMagic), true)
	f.Fuzz(func(t *testing.T, to, from, port int32, kind uint8, a, b, c int32, post bool) {
		var buf, buf2 [envelopeSize]byte
		if post {
			p := postRecord{count: to, m: Message{From: from, Kind: MsgKind(kind), A: a, B: b, C: c}}
			putPost(buf[:], p)
			got := parsePost(buf[:])
			if recordForm(buf[:]) != recordPost || got != p {
				t.Fatalf("decode(encode(%+v)) = %+v, form %d", p, got, recordForm(buf[:]))
			}
			putPost(buf2[:], got)
		} else {
			env := envelope{to: to, m: Message{From: from, Port: port, Kind: MsgKind(kind), A: a, B: b, C: c}}
			putEnvelope(buf[:], env)
			got := parseEnvelope(buf[:])
			if recordForm(buf[:]) != recordEnvelope || got != env {
				t.Fatalf("decode(encode(%+v)) = %+v, form %d", env, got, recordForm(buf[:]))
			}
			putEnvelope(buf2[:], got)
		}
		if !bytes.Equal(buf[:], buf2[:]) {
			t.Fatalf("re-encoding unstable: %x vs %x", buf, buf2)
		}
	})
}

// FuzzFrameHeaderCodec: arbitrary header field values survive the
// header codec.
func FuzzFrameHeaderCodec(f *testing.F) {
	f.Add(uint8(1), uint16(0), uint16(1), uint32(0), uint32(0))
	f.Add(uint8(7), uint16(65535), uint16(3), uint32(1<<31), uint32(1<<20))
	f.Fuzz(func(t *testing.T, typ uint8, from, to uint16, round, count uint32) {
		h := frameHeader{Type: typ, From: from, To: to, Round: round, Count: count}
		var b [headerSize]byte
		putHeader(b[:], h)
		got, err := parseHeader(b[:])
		if err != nil {
			t.Fatal(err)
		}
		if got != h {
			t.Fatalf("decode(encode(%+v)) = %+v", h, got)
		}
	})
}
