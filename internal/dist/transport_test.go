package dist_test

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
)

// The output-equivalence pins (spanner mask, clustering, sparsified
// edge list, Stats — bit-identical across every transport and shard
// count) live in the cross-transport matrix of equivalence_test.go.
// This file keeps the transport-SPECIFIC properties: the cross-shard
// ledger split and degenerate inputs. The partition geometry is pinned
// where its formula lives (graphio's TestShardOfVertexInvertsBounds).

// TestShardedLedgerMatchesMem: the ledger is transport-independent up
// to the CrossShard split — Rounds, Messages, Words, MaxMessageWords
// and every per-phase row agree between transports at any P.
func TestShardedLedgerMatchesMem(t *testing.T) {
	g := gen.Gnp(350, 0.08, 13)
	ref := runSparsify(t, dist.Mem(), g, 0.75, 4, 0, 5).Stats
	for _, p := range []int{1, 2, 4, 8} {
		st := runSparsify(t, dist.Sharded(p), g, 0.75, 4, 0, 5).Stats
		if st.Shards != p {
			t.Fatalf("P=%d: Stats.Shards=%d", p, st.Shards)
		}
		if st.Rounds != ref.Rounds || st.Messages != ref.Messages ||
			st.Words != ref.Words || st.MaxMessageWords != ref.MaxMessageWords {
			t.Fatalf("P=%d: totals diverge: sharded %+v vs mem %+v", p, st, ref)
		}
		if len(st.Phases) != len(ref.Phases) {
			t.Fatalf("P=%d: phase count %d vs %d", p, len(st.Phases), len(ref.Phases))
		}
		for i, ph := range st.Phases {
			rp := ref.Phases[i]
			if ph.Name != rp.Name || ph.Rounds != rp.Rounds ||
				ph.Messages != rp.Messages || ph.Words != rp.Words {
				t.Fatalf("P=%d: phase %q diverges: %+v vs %+v", p, ph.Name, ph, rp)
			}
		}
		if p == 1 && (st.CrossShardMessages != 0 || st.CrossShardWords != 0) {
			t.Fatalf("P=1 cannot have cross-shard traffic: %+v", st)
		}
		if p > 1 && st.CrossShardMessages == 0 {
			t.Fatalf("P=%d on a connected graph saw no cross-shard traffic", p)
		}
		if st.CrossShardMessages > st.Messages || st.CrossShardWords > st.Words {
			t.Fatalf("P=%d: cross-shard exceeds totals: %+v", p, st)
		}
	}
	if ref.Shards != 1 || ref.CrossShardMessages != 0 {
		t.Fatalf("in-memory ledger should report one shard, no cross traffic: %+v", ref)
	}
}

// TestShardedEdgeCases mirrors the degenerate-input ledger checks on
// the sharded transport: edgeless graphs, k=1, and rho<=1 all terminate
// with sane (message-free) ledgers at P>1.
func TestShardedEdgeCases(t *testing.T) {
	empty := runSpanner(t, dist.Sharded(4), graph.New(10), 0, 1)
	if graph.CountTrue(empty.Output.InSpanner) != 0 || empty.Stats.Messages != 0 {
		t.Fatalf("edgeless ledger: %+v", empty.Stats)
	}
	k1 := runSpanner(t, dist.Sharded(4), gen.Complete(10), 1, 1)
	if graph.CountTrue(k1.Output.InSpanner) != gen.Complete(10).M() || k1.Stats.Messages != 0 {
		t.Fatalf("k=1 spanner must be the graph itself: %+v", k1.Stats)
	}
	g := gen.Gnp(50, 0.2, 19)
	id := runSparsify(t, dist.Sharded(4), g, 0.5, 1, 0, 11)
	if id.Output.M() != g.M() || id.Stats.Rounds != 0 || id.Stats.Messages != 0 {
		t.Fatalf("rho<=1 should be a free identity: %+v", id.Stats)
	}
}
