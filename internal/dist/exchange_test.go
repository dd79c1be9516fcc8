package dist

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
)

// TestShardOfMatchesShardOfVertex enumerates the bounds search against
// the leaf package's formula: every vertex at every (n, p) with n ≤ 64,
// and every vertex of a 10^6+7-vertex graph at a few shard counts.
func TestShardOfMatchesShardOfVertex(t *testing.T) {
	check := func(n, p int) {
		pt := newPartition(n, p)
		for v := int32(0); v < int32(n); v++ {
			if got, want := pt.shardOf(v), graph.ShardOfVertex(n, p, v); got != want {
				t.Fatalf("n=%d p=%d: shardOf(%d) = %d, ShardOfVertex = %d", n, p, v, got, want)
			}
		}
	}
	for n := 1; n <= 64; n++ {
		for p := 1; p <= n; p++ {
			check(n, p)
		}
	}
	for _, p := range []int{2, 3, 7, 64} {
		check(1_000_007, p)
	}
}

// localOfErr calls localOf and returns its *NetError panic as an
// error; any other panic propagates.
func localOfErr(w *view, gid int32) (lid int32, err error) {
	defer recoverNetError(&err)
	return w.localOf(gid), nil
}

// TestLocalOfEnumeration checks the directory lookup for every id in
// and around [0, m) over id sets that stress its buckets: empty (nil
// and allocated), full, every other id, a single id, and clustered at
// either end. An incident id maps to its position; every other id is
// a *NetError. The directory never costs more than one word per
// incident edge.
func TestLocalOfEnumeration(t *testing.T) {
	span := func(lo, hi int) []int32 {
		ids := []int32{}
		for i := lo; i < hi; i++ {
			ids = append(ids, int32(i))
		}
		return ids
	}
	for _, m := range []int{1, 2, 3, 5, 8, 64, 100, 1000, 4099} {
		k := m/8 + 1
		var everyOther []int32
		for i := 0; i < m; i += 2 {
			everyOther = append(everyOther, int32(i))
		}
		for _, set := range []struct {
			name string
			ids  []int32
		}{
			{"nil", nil},
			{"empty", []int32{}},
			{"full", span(0, m)},
			{"every-other", everyOther},
			{"single", []int32{int32(m / 2)}},
			{"low-cluster", span(0, k)},
			{"high-cluster", span(m-k, m)},
		} {
			edges := make([]graph.Edge, len(set.ids))
			for i := range edges {
				edges[i] = graph.Edge{U: 0, V: 1, W: 1}
			}
			w := newPartView(2, m, 0, 2, set.ids, edges)
			if w.full() {
				t.Fatalf("m=%d %s: partition view reads as a full view", m, set.name)
			}
			if len(w.dir) > len(set.ids) {
				t.Fatalf("m=%d %s: directory has %d words for %d ids", m, set.name, len(w.dir), len(set.ids))
			}
			want := make(map[int32]int32, len(set.ids))
			for lid, gid := range set.ids {
				want[gid] = int32(lid)
			}
			probe := []int32{math.MinInt32, -2, -1, int32(m + 1), int32(m + 64), math.MaxInt32}
			for gid := int32(0); gid <= int32(m); gid++ {
				probe = append(probe, gid)
			}
			for _, gid := range probe {
				lid, err := localOfErr(w, gid)
				wantLid, incident := want[gid]
				var ne *NetError
				switch {
				case incident && (err != nil || lid != wantLid):
					t.Fatalf("m=%d %s: localOf(%d) = %d, %v; want %d", m, set.name, gid, lid, err, wantLid)
				case !incident && !errors.As(err, &ne):
					t.Fatalf("m=%d %s: localOf(%d) = %d, %v; want a *NetError", m, set.name, gid, lid, err)
				}
			}
		}
	}
}

// TestMalformedBatchIsTypedError forges one record into shard 1's
// batch for shard 0, past Send's and Post's staging checks, for each
// way a batch can be malformed: an envelope, or post records (a post
// carries the number of the poster's live edges into shard 0, which
// shard 0 counts in its own view). Shard 0's barrier must reject it
// with a *NetError naming shard 1 before anything reaches a mailbox or
// the post board, well within the frame timeout — never deliver it to
// a mailbox shard 0 does not read, and never panic with a runtime
// error. A positive control forges the one well-formed post, vertex
// 70's with its true count: shard 0 must accept and hear it, so the
// count cases fail on the count, not on a view that counted nothing.
func TestMalformedBatchIsTypedError(t *testing.T) {
	const n, timeout = 100, 5 * time.Second // shard 0 owns [0, 50)
	// The posting rounds' views: vertex 70 has three live edges into
	// shard 0, vertex 80 none. Each shard's view holds the edges
	// incident to it, as a partition view does.
	edges := []graph.Edge{{U: 70, V: 10, W: 1}, {U: 11, V: 70, W: 1}, {U: 70, V: 12, W: 1}, {U: 80, V: 81, W: 1}}
	views := [2][]graph.Edge{edges[:3], edges}
	post := func(count int32, m Message) []postRecord { return []postRecord{{count: count, m: m}} }
	for _, tc := range []struct {
		name   string
		env    envelope
		posts  []postRecord // forged instead of env when set
		accept bool         // the positive control: shard 0 hears the post
	}{
		{"post-counted-in-receiver-view", envelope{}, post(3, Message{Kind: MsgCenter, From: 70, A: 7, B: 2, C: 1}), true},
		{"recipient-in-sender-shard", envelope{to: 60, m: Message{Kind: MsgCenter, From: 70}}, nil, false},
		{"recipient-out-of-range", envelope{to: 1000, m: Message{Kind: MsgCenter, From: 70}}, nil, false},
		{"recipient-negative", envelope{to: -1, m: Message{Kind: MsgCenter, From: 70}}, nil, false},
		{"receiver-staged-kind", envelope{to: 10, m: Message{Kind: MsgKeep, From: 70}}, nil, false},
		{"unknown-kind", envelope{to: 10, m: Message{Kind: 200, From: 70}}, nil, false},
		{"sender-in-receiver-shard", envelope{to: 10, m: Message{Kind: MsgAdd, From: 20}}, nil, false},
		{"sender-missing", envelope{to: 10, m: Message{Kind: MsgDrop, From: -1}}, nil, false},
		{"cluster-out-of-range", envelope{to: 10, m: Message{Kind: MsgCenter, From: 70, A: n}}, nil, false},
		{"cluster-negative", envelope{to: 10, m: Message{Kind: MsgNewCenter, From: 70, A: -1}}, nil, false},
		{"post-count-above-live-slots", envelope{}, post(4, Message{Kind: MsgCenter, From: 70}), false},
		{"post-count-below-live-slots", envelope{}, post(2, Message{Kind: MsgCenter, From: 70}), false},
		{"post-count-zero", envelope{}, post(0, Message{Kind: MsgNewCenter, From: 70}), false},
		{"post-count-negative", envelope{}, post(-3, Message{Kind: MsgCenter, From: 70}), false},
		{"post-sender-in-receiver-shard", envelope{}, post(3, Message{Kind: MsgCenter, From: 20}), false},
		{"post-sender-out-of-range", envelope{}, post(3, Message{Kind: MsgCenter, From: 1000}), false},
		{"post-sender-without-edges-here", envelope{}, post(1, Message{Kind: MsgNewCenter, From: 80}), false},
		{"post-notice-kind", envelope{}, post(3, Message{Kind: MsgAdd, From: 70}), false},
		{"post-receiver-staged-kind", envelope{}, post(3, Message{Kind: MsgKeep, From: 70}), false},
		{"post-cluster-out-of-range", envelope{}, post(3, Message{Kind: MsgCenter, From: 70, A: n}), false},
		{"post-cluster-negative", envelope{}, post(3, Message{Kind: MsgNewCenter, From: 70, A: -1}), false},
		{"post-twice-in-one-round", envelope{}, append(post(3, Message{Kind: MsgCenter, From: 70}), post(3, Message{Kind: MsgCenter, From: 70})...), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				done <- runFleet(n, 2, timeout, func(tr *NetTransport) (err error) {
					defer recoverNetError(&err)
					if err := tr.WaitReady(); err != nil {
						return err
					}
					if err := tr.setupDataPlane(); err != nil {
						return err
					}
					view := views[tr.Shard()]
					tr.x.board.setView(graph.NewAdjacencyDense(n, view), view, make([]bool, len(view)))
					if tr.Shard() == 1 && tc.posts != nil {
						tr.postTo[0] = append(tr.postTo[0], tc.posts...)
					} else if tr.Shard() == 1 {
						tr.x.rows[1].to[0] = append(tr.x.rows[1].to[0], tc.env)
					}
					tr.EndRound(0)
					if tc.accept && tr.Shard() == 0 {
						if m, ok := tr.x.board.heard(70); !ok || m != tc.posts[0].m {
							return fmt.Errorf("shard 0 hears %+v (%v) from vertex 70, want %+v", m, ok, tc.posts[0].m)
						}
					}
					return nil
				})
			}()
			select {
			case err := <-done:
				var ne *NetError
				if tc.accept {
					if err != nil {
						t.Fatalf("the well-formed post was refused: %v", err)
					}
					return
				}
				if !errors.As(err, &ne) || !strings.Contains(err.Error(), "batch from shard 1") {
					t.Fatalf("got %v, want a *NetError naming shard 1's batch", err)
				}
				t.Log(err)
			case <-time.After(timeout):
				t.Fatalf("no typed error within the %v frame timeout", timeout)
			}
		})
	}
}

// TestRollbackDiscardsStagedTally: traffic staged and posts made
// before beginAttempt belong to an aborted attempt. The next EndRound
// must bill, and deliver, only what was staged after it — on both
// shards, so the summed tally is the replay's alone — and no post of
// the aborted attempt may be heard, locally or by the peer. Five
// vertices of each shard post in the aborted attempt and only the
// first four in the replay, so the fifth's aborted post is one the
// replay does not overwrite: it must go unheard on its own shard too.
// The aborted attempt drops two edges of the posting view through the
// board and the replay a third, on a fresh mask, before both post: the
// replay's bill must be a recount of its own view, and the peer must
// accept and hear its posts, so no count of the aborted attempt
// survives the rollback.
func TestRollbackDiscardsStagedTally(t *testing.T) {
	const n = 100
	bounds := graph.ShardBounds(n, 2)
	// The posting view: vertex i of each shard has one edge, to vertex
	// i of the other, for i < 5.
	var edges []graph.Edge
	for i := 0; i < 5; i++ {
		edges = append(edges, graph.Edge{U: int32(bounds[0] + i), V: int32(bounds[1] + i), W: 1})
	}
	adj := graph.NewAdjacency(graph.FromEdges(n, edges))
	abortedDrops, replayDrop := []int32{1, 2}, int32(0)
	const replayPosters = 4
	tallies := make([]RoundTally, 2)
	err := runFleet(n, 2, 5*time.Second, func(tr *NetTransport) (err error) {
		defer recoverNetError(&err)
		if err := tr.WaitReady(); err != nil {
			return err
		}
		if err := tr.setupDataPlane(); err != nil {
			return err
		}
		s := tr.Shard()
		lo, hi, peer := int32(bounds[s]), int32(bounds[s+1]), int32(bounds[1-s])
		tr.x.board.setView(adj, edges, make([]bool, len(edges)))
		for _, lid := range abortedDrops {
			tr.x.board.drop(lid)
		}
		for i := int32(0); i < 5; i++ {
			tr.Send(peer+i, Message{Kind: MsgCenter, From: lo + i})
			tr.Send(lo+i+1, Message{Kind: MsgCenter, From: lo + i})
			tr.Post(Message{Kind: MsgCenter, From: lo + i, A: lo + i})
		}
		tr.beginAttempt()
		tr.x.board.setView(adj, edges, make([]bool, len(edges)))
		tr.x.board.drop(replayDrop)
		for i := int32(0); i < replayPosters; i++ {
			tr.Post(Message{Kind: MsgCenter, From: lo + i, A: lo + i, B: 1})
		}
		tr.Send(peer, Message{Kind: MsgDrop, From: lo, A: 7})
		tr.Send(lo, Message{Kind: MsgKeep, From: lo + 1, A: 1})
		tallies[s] = tr.EndRound(0)
		for v := int32(0); v < n; v++ {
			m, ok := tr.x.board.heard(v)
			if ok && m.B != 1 {
				return fmt.Errorf("shard %d hears vertex %d's post %+v of the aborted attempt", s, v, m)
			}
			// The replay's posters are heard on their own shard, and on
			// the peer only over a live edge: all but the first.
			own, overLiveEdge := v >= lo && v < lo+replayPosters, v > peer && v < peer+replayPosters
			if ok != (own || overLiveEdge) {
				return fmt.Errorf("shard %d: vertex %d's replay post heard %v, want %v", s, v, ok, own || overLiveEdge)
			}
		}
		for v := lo; v < hi; v++ {
			if box := tr.Recv(v); v != lo && len(box) != 0 {
				return fmt.Errorf("shard %d: vertex %d holds %d messages of the aborted attempt", s, v, len(box))
			}
		}
		got, kinds := tr.Recv(lo), map[MsgKind]bool{}
		for _, m := range got {
			kinds[m.Kind] = true
		}
		if len(got) != 2 || !kinds[MsgDrop] || !kinds[MsgKeep] {
			return fmt.Errorf("shard %d: vertex %d holds %+v, want the replay's drop and keep", s, lo, got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The recount: one 3-word message per live slot of each replay
	// poster in the replay's view, every slot crossing the cut, plus
	// each shard's 1-word drop (cross-shard) and keep (local).
	want := RoundTally{Messages: 4, Words: 4, MaxMessageWords: 3, CrossShardMessages: 2, CrossShardWords: 2}
	for s := 0; s < 2; s++ {
		for u := int32(bounds[s]); u < int32(bounds[s]+replayPosters); u++ {
			lo, hi := adj.Range(u)
			for _, eid := range adj.EID[lo:hi] {
				if eid != replayDrop {
					want.add(RoundTally{Messages: 1, Words: 3, CrossShardMessages: 1, CrossShardWords: 3})
				}
			}
		}
	}
	for s, got := range tallies {
		if got != want {
			t.Fatalf("shard %d billed %+v after the rollback, want %+v", s, got, want)
		}
	}
}

// TestEmptyShardRunsThePartitionPath: a shard with no incident edge
// still holds a partition view, so it joins every collective of a
// sampling round with its peers instead of taking the full-view path.
// Here shard 1 owns vertices 20..39 and none has an edge.
func TestEmptyShardRunsThePartitionPath(t *testing.T) {
	var edges []graph.Edge
	for u := int32(0); u < 20; u++ {
		for v := u + 1; v < 20; v++ {
			edges = append(edges, graph.Edge{U: u, V: v, W: 1})
		}
	}
	g := graph.FromEdges(40, edges)
	job := SparsifyJob(0.75, 4, SparsifyDefaults(0, 3))
	ref, err := Run(NewEngine(Sharded(2), g), job)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(NewEngine(Mesh(2).WithTimeout(5*time.Second), g), job)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Output.Edges, ref.Output.Edges) || !reflect.DeepEqual(res.Stats, ref.Stats) {
		t.Fatalf("Mesh(2) diverges from Sharded(2): %d vs %d edges, %v vs %v", len(res.Output.Edges), len(ref.Output.Edges), res.Stats, ref.Stats)
	}
}
