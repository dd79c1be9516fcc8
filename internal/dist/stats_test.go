package dist

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
)

// TestPhaseMergeSemantics: BeginPhase with a repeated name re-targets
// the existing row instead of appending a new one, so iterated stages
// report one merged row, and the merged rows still partition the
// totals.
func TestPhaseMergeSemantics(t *testing.T) {
	e := newRoundEngine(4)
	e.BeginPhase("a")
	e.Deliver(1, Message{From: 0, Kind: MsgKeep})
	e.EndRound()
	e.BeginPhase("b")
	e.Deliver(2, Message{From: 0, Kind: MsgCenter})
	e.EndRound()
	e.BeginPhase("a") // merge back into the first row
	e.Deliver(3, Message{From: 0, Kind: MsgKeep})
	e.Deliver(0, Message{From: 3, Kind: MsgKeep})
	e.EndRound()
	st := e.Stats()
	if len(st.Phases) != 2 {
		t.Fatalf("want 2 merged phases, got %+v", st.Phases)
	}
	a, b := st.Phases[0], st.Phases[1]
	if a.Name != "a" || b.Name != "b" {
		t.Fatalf("phase order not first-use order: %+v", st.Phases)
	}
	if a.Rounds != 2 || a.Messages != 3 || a.Words != 3 {
		t.Fatalf("merged phase a wrong: %+v", a)
	}
	if b.Rounds != 1 || b.Messages != 1 || b.Words != 3 {
		t.Fatalf("phase b wrong: %+v", b)
	}
	if st.Rounds != a.Rounds+b.Rounds || st.Messages != a.Messages+b.Messages ||
		st.Words != a.Words+b.Words {
		t.Fatalf("phases don't partition totals: %+v", st)
	}
	if st.MaxMessageWords != 3 {
		t.Fatalf("max message width %d want 3 (MsgCenter)", st.MaxMessageWords)
	}
}

// TestUnnamedRoundsFallIntoMain: an EndRound before any BeginPhase
// opens the implicit "main" phase rather than losing the bill.
func TestUnnamedRoundsFallIntoMain(t *testing.T) {
	e := newRoundEngine(2)
	e.Deliver(0, Message{From: 1, Kind: MsgKeep})
	e.EndRound()
	st := e.Stats()
	if len(st.Phases) != 1 || st.Phases[0].Name != "main" || st.Phases[0].Messages != 1 {
		t.Fatalf("implicit main phase missing: %+v", st.Phases)
	}
}

// TestCrossShardAccounting drives a sharded engine by hand and checks
// the CrossShard split message by message: traffic between vertices of
// one shard bills only the plain counters, traffic between shards bills
// both, and the phase rows carry the same split.
func TestCrossShardAccounting(t *testing.T) {
	// 4 vertices, 2 shards: shard 0 owns {0,1}, shard 1 owns {2,3}.
	e := newRoundEngineOn(4, NewShardedTransport(4, 2))
	if s1, s2 := graph.ShardOfVertex(4, 2, 1), graph.ShardOfVertex(4, 2, 2); s1 != 0 || s2 != 1 {
		t.Fatalf("unexpected partition: shard of 1 is %d, of 2 is %d", s1, s2)
	}
	e.BeginPhase("x")
	e.Deliver(1, Message{From: 0, Kind: MsgKeep})   // local within shard 0: 1 word
	e.Deliver(3, Message{From: 2, Kind: MsgCenter}) // local within shard 1: 3 words
	e.Deliver(2, Message{From: 1, Kind: MsgCenter}) // cross 0→1: 3 words
	e.Deliver(0, Message{From: 3, Kind: MsgKeep})   // cross 1→0: 1 word
	e.EndRound()
	st := e.Stats()
	if st.Shards != 2 {
		t.Fatalf("Shards=%d want 2", st.Shards)
	}
	if st.Messages != 4 || st.Words != 8 {
		t.Fatalf("totals wrong: %+v", st)
	}
	if st.CrossShardMessages != 2 || st.CrossShardWords != 4 {
		t.Fatalf("cross-shard split wrong: %+v", st)
	}
	ph := st.Phases[0]
	if ph.CrossShardMessages != 2 || ph.CrossShardWords != 4 {
		t.Fatalf("phase cross-shard split wrong: %+v", ph)
	}
	// A message with no sender (From < 0) is billed as local to the
	// recipient's shard.
	e.Deliver(0, Message{From: -1, Kind: MsgSampled})
	e.EndRound()
	st2 := e.Stats()
	if st2.CrossShardMessages != st.CrossShardMessages {
		t.Fatalf("senderless message billed cross-shard: %+v", st2)
	}
}

// TestShardedTransportPartition: the ownership partition is a balanced
// contiguous cover, the execution partition coincides with it, and
// shard counts clamp sanely.
func TestShardedTransportPartition(t *testing.T) {
	for _, tc := range []struct{ n, p, want int }{
		{100, 4, 4}, {100, 0, 1}, {100, -3, 1}, {3, 8, 3}, {0, 4, 1},
	} {
		tr := NewShardedTransport(tc.n, tc.p)
		if tr.Shards() != tc.want || tr.Workers() != tc.want {
			t.Fatalf("n=%d p=%d: shards %d workers %d want %d", tc.n, tc.p, tr.Shards(), tr.Workers(), tc.want)
		}
		seen := 0
		for s := 0; s < tr.Shards(); s++ {
			// Every vertex must be owned by exactly the shard whose
			// range contains it, and staged by that shard's worker.
			for v := int32(0); v < int32(tc.n); v++ {
				if tr.x.owner.shardOf(v) == s {
					seen++
					if tr.x.exec.shardOf(v) != s {
						t.Fatalf("n=%d p=%d: vertex %d owned by shard %d but executed by worker %d",
							tc.n, tc.p, v, s, tr.x.exec.shardOf(v))
					}
				}
			}
		}
		if seen != tc.n {
			t.Fatalf("n=%d p=%d: partition covers %d vertices", tc.n, tc.p, seen)
		}
	}
	// Contiguity and balance for one concrete partition.
	tr := NewShardedTransport(10, 3)
	prev := 0
	for v := int32(0); v < 10; v++ {
		s := tr.x.owner.shardOf(v)
		if s < prev || s > prev+1 {
			t.Fatalf("partition not contiguous at v=%d: shard %d after %d", v, s, prev)
		}
		prev = s
	}
	if prev != 2 {
		t.Fatalf("last vertex owned by shard %d, want 2", prev)
	}
}

// TestStatsStringCrossShard: the compact rendering mentions the shard
// split exactly when there is one.
func TestStatsStringCrossShard(t *testing.T) {
	mem := Stats{Rounds: 1, Messages: 2, Words: 2, Shards: 1}
	if s := mem.String(); strings.Contains(s, "shards=") {
		t.Fatalf("single-shard ledger should not render a shard split: %s", s)
	}
	sh := Stats{Rounds: 1, Messages: 2, Words: 2, Shards: 4, CrossShardMessages: 1, CrossShardWords: 1}
	if s := sh.String(); !strings.Contains(s, "shards=4") || !strings.Contains(s, "xwords=1") {
		t.Fatalf("sharded ledger missing split: %s", s)
	}
}

// TestMailboxRecycling: mailbox slices are reused across rounds — the
// contract that callers must not retain them. A mailbox holds only
// what another process sent, so the test runs a two-shard fleet: a
// MsgDrop from shard 1 reaches vertex 0's mailbox at the barrier and
// is gone after the next one.
func TestMailboxRecycling(t *testing.T) {
	err := runFleet(2, 2, 5*time.Second, func(tr *NetTransport) (err error) {
		defer recoverNetError(&err)
		if err := tr.WaitReady(); err != nil {
			return err
		}
		if err := tr.setupDataPlane(); err != nil {
			return err
		}
		e := newRoundEngineOn(2, tr)
		if tr.Shard() == 1 {
			e.Deliver(0, Message{From: 1, Kind: MsgDrop, A: 7})
		}
		e.EndRound()
		var first []Message
		if tr.Shard() == 0 {
			first = append(first, e.Mailbox(0)...)
		}
		e.EndRound() // nothing sent: the mailbox must come back empty
		if tr.Shard() == 1 {
			return nil
		}
		if len(first) != 1 || first[0] != (Message{From: 1, Kind: MsgDrop, A: 7}) {
			return fmt.Errorf("first delivery lost: %+v", first)
		}
		if box := e.Mailbox(0); len(box) != 0 {
			return fmt.Errorf("stale mailbox survived a round: %+v", box)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPostBillsLikeOneEnvelopePerLiveEdge: a post bills exactly what
// Deliver bills for one envelope over each live slot of the poster —
// messages, words, width and the cross-shard split, per phase too —
// and the other end of each of those slots hears it after the barrier
// that closes its round, not before it and not after the next one.
// The view has a dead edge, a self-loop (dead, as the spanner marks
// it), and a reversed parallel pair across the shard cut. A second
// round posts again after three drops made through the board — a
// boundary edge, one copy of the parallel pair, and an edge dropped
// twice — and must bill what the envelopes over the edges still live
// bill, from the counts the board kept at each drop.
func TestPostBillsLikeOneEnvelopePerLiveEdge(t *testing.T) {
	const n = 6 // on two shards {0, 1, 2} and {3, 4, 5}; on three {0, 1}, {2, 3} and {4, 5}
	g := graph.FromEdges(n, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 0, V: 3, W: 1}, {U: 3, V: 0, W: 2}, {U: 1, V: 4, W: 1},
		{U: 2, V: 1, W: 1}, {U: 3, V: 3, W: 1}, {U: 4, V: 5, W: 1}, {U: 2, V: 5, W: 1},
		{U: 1, V: 5, W: 1},
	})
	// Edge 8 crosses every cut, edge 2 is one copy of the parallel pair
	// of edges 1 and 2 between vertices 0 and 3, and edge 4 crosses the
	// three-shard cut only. After the drops vertex 2 has no live edge.
	drops := []int32{8, 2, 4, 4}
	adj := graph.NewAdjacency(g)
	for name, mk := range map[string]func() Transport{
		"mem":      func() Transport { return NewMemTransport(n) },
		"sharded2": func() Transport { return NewShardedTransport(n, 2) },
		"sharded3": func() Transport { return NewShardedTransport(n, 3) },
	} {
		dead := []bool{false, false, false, true, false, true, false, true, false}
		post, send := newRoundEngineOn(n, mk()), newRoundEngineOn(n, mk())
		post.PostView(newFullView(g), dead)
		for round, phase := range []string{"before-drops", "after-drops"} {
			if round == 1 {
				for _, lid := range drops {
					post.Drop(lid)
				}
			}
			post.BeginPhase(phase)
			send.BeginPhase(phase)
			for u := int32(0); u < n; u++ {
				m := Message{Kind: MsgCenter, A: 10 + u, B: u, C: int32(round)}
				post.Post(u, m)
				lo, hi := adj.Range(u)
				for slot := lo; slot < hi; slot++ {
					if !dead[adj.EID[slot]] {
						m.From, m.Port = u, adj.EID[slot]
						send.Deliver(adj.Nbr[slot], m)
					}
				}
			}
			if m, ok := post.Heard(0); ok && m.C == int32(round) {
				t.Fatalf("%s: a post is heard before its round's barrier", name)
			}
			post.EndRound()
			send.EndRound()
			if got, want := post.Stats(), send.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: posts billed %+v, one envelope per live edge %+v", name, phase, got, want)
			}
			for v := int32(0); v < n; v++ {
				lo, hi := adj.Range(v)
				for slot := lo; slot < hi; slot++ {
					if dead[adj.EID[slot]] {
						continue
					}
					u := adj.Nbr[slot]
					if m, ok := post.Heard(u); !ok || m != (Message{From: u, Kind: MsgCenter, A: 10 + u, B: u, C: int32(round)}) {
						t.Fatalf("%s %s: vertex %d hears %+v (%v) from %d", name, phase, v, m, ok, u)
					}
				}
			}
		}
		for _, lid := range drops {
			if !dead[lid] {
				t.Fatalf("%s: edge %d dropped through the board is not dead", name, lid)
			}
		}
		post.EndRound()
		for u := int32(0); u < n; u++ {
			if m, ok := post.Heard(u); ok {
				t.Fatalf("%s: vertex %d's post %+v is still heard a round later", name, u, m)
			}
		}
	}
}
