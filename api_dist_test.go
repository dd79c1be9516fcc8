package repro

import "testing"

// TestDistributedSparsifyHonorsOptions: the distributed entry point
// resolves BundleT and Theory the same way the shared-memory path does,
// so equal Options give edge-identical outputs from both.
func TestDistributedSparsifyHonorsOptions(t *testing.T) {
	g := Gnp(200, 0.3, 33)
	for _, opt := range []Options{
		{Seed: 5},
		{Seed: 5, BundleT: 2},
		{Seed: 5, Theory: true},
	} {
		hd, _ := DistributedSparsify(g, 0.75, 4, opt)
		hs, _, err := Sparsify(g, 0.75, 4, opt)
		if err != nil {
			t.Fatal(err)
		}
		if hd.M() != hs.M() {
			t.Fatalf("opt %+v: distributed m=%d vs shared m=%d", opt, hd.M(), hs.M())
		}
		for i := range hs.Edges {
			if hd.Edges[i] != hs.Edges[i] {
				t.Fatalf("opt %+v: edge %d differs: %+v vs %+v", opt, i, hd.Edges[i], hs.Edges[i])
			}
		}
	}
	// Domain parity with the shared-memory path: eps > 1 is legal when
	// the per-round accuracy lands in (0,1], and rho ≤ 1 is the
	// identity for any eps.
	hd, _ := DistributedSparsify(g, 1.5, 4, Options{Seed: 5})
	hs, _, err := Sparsify(g, 1.5, 4, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if hd.M() != hs.M() {
		t.Fatalf("eps=1.5: distributed m=%d vs shared m=%d", hd.M(), hs.M())
	}
	id, stats := DistributedSparsify(g, 0, 1, Options{Seed: 5})
	if id.M() != g.M() || stats.Rounds != 0 {
		t.Fatalf("rho<=1 should be a free identity: m=%d stats=%+v", id.M(), stats)
	}
	// BundleT must actually change the outcome (it did not before it
	// was plumbed through).
	deep, _ := DistributedSparsify(g, 0.75, 4, Options{Seed: 5, BundleT: 4})
	shallow, _ := DistributedSparsify(g, 0.75, 4, Options{Seed: 5, BundleT: 1})
	if deep.M() <= shallow.M() {
		t.Fatalf("deeper bundle should keep more edges: t=4 gives %d, t=1 gives %d", deep.M(), shallow.M())
	}
}

// TestDistributedSparsifyShardsOption: the shard count of
// Transport: Sharded(P) switches the partition without changing the
// output — the in-memory default and every shard count produce
// edge-identical graphs, and the sharded ledger records its shard
// count and cross-shard traffic.
func TestDistributedSparsifyShardsOption(t *testing.T) {
	g := Gnp(250, 0.2, 44)
	ref, refStats := DistributedSparsify(g, 0.75, 4, Options{Seed: 9})
	if refStats.Shards != 1 || refStats.CrossShardMessages != 0 {
		t.Fatalf("default transport should be single-shard: %+v", refStats)
	}
	for _, p := range []int{1, 3, 8} {
		h, st := DistributedSparsify(g, 0.75, 4, Options{Seed: 9, Transport: Sharded(p)})
		if h.M() != ref.M() {
			t.Fatalf("Shards=%d: m=%d vs default %d", p, h.M(), ref.M())
		}
		for i := range ref.Edges {
			if h.Edges[i] != ref.Edges[i] {
				t.Fatalf("Shards=%d: edge %d differs", p, i)
			}
		}
		if st.Shards != p {
			t.Fatalf("Shards=%d: ledger reports %d shards", p, st.Shards)
		}
		if st.Rounds != refStats.Rounds || st.Words != refStats.Words {
			t.Fatalf("Shards=%d: ledger totals diverge: %+v vs %+v", p, st, refStats)
		}
		if p > 1 && st.CrossShardWords == 0 {
			t.Fatalf("Shards=%d: no cross-shard traffic recorded", p)
		}
	}
}

// TestDistributedTransportOption: the Transport field selects the spec
// directly, and every spec — the loopback multi-process one included —
// produces the same edges as the in-memory default.
func TestDistributedTransportOption(t *testing.T) {
	g := Gnp(220, 0.15, 21)
	ref, refStats := DistributedSparsify(g, 0.75, 4, Options{Seed: 9})
	for name, opt := range map[string]Options{
		"sharded-spec": {Seed: 9, Transport: Sharded(3)},
		"mesh-spec":    {Seed: 9, Transport: Mesh(3)},
	} {
		h, st := DistributedSparsify(g, 0.75, 4, opt)
		if h.M() != ref.M() {
			t.Fatalf("%s: m=%d vs default %d", name, h.M(), ref.M())
		}
		for i := range ref.Edges {
			if h.Edges[i] != ref.Edges[i] {
				t.Fatalf("%s: edge %d differs", name, i)
			}
		}
		if st.Rounds != refStats.Rounds || st.Words != refStats.Words {
			t.Fatalf("%s: ledger totals diverge: %+v vs %+v", name, st, refStats)
		}
	}
	// The spanner entry point honors the spec too.
	sref, _ := DistributedSpanner(g, Options{Seed: 9})
	ssh, sst := DistributedSpanner(g, Options{Seed: 9, Transport: Sharded(4)})
	if ssh.M() != sref.M() {
		t.Fatalf("spanner sharded m=%d vs mem %d", ssh.M(), sref.M())
	}
	for i := range sref.Edges {
		if ssh.Edges[i] != sref.Edges[i] {
			t.Fatalf("spanner edge %d differs", i)
		}
	}
	if sst.Shards != 4 {
		t.Fatalf("spanner ledger reports %d shards, want 4", sst.Shards)
	}
}

// TestParseTransport: the one grammar behind every CLI -transport
// flag resolves each spec name and rejects unknown names (the retired
// "loopback" among them) and missing shard counts.
func TestParseTransport(t *testing.T) {
	cases := []struct {
		name    string
		shards  int
		want    TransportSpec
		wantErr bool
	}{
		{"", 3, Sharded(3), false},
		{"sharded", 2, Sharded(2), false},
		{"mem", 0, Mem(), false},
		{"mesh", 4, Mesh(4), false},
		{"mesh", 0, TransportSpec{}, true},
		{"loopback", 4, TransportSpec{}, true},
		{"", 0, TransportSpec{}, true},
		{"bogus", 3, TransportSpec{}, true},
	}
	for _, c := range cases {
		got, err := ParseTransport(c.name, c.shards)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseTransport(%q, %d): want error, got %v", c.name, c.shards, got)
			}
			continue
		}
		// Specs carry an OnListen func field, so compare by String().
		if err != nil || got.String() != c.want.String() {
			t.Errorf("ParseTransport(%q, %d) = (%v, %v), want %v", c.name, c.shards, got, err, c.want)
		}
	}
}
