package dist_test

import (
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bundle"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/spanner"
	"repro/internal/spectral"
	"repro/internal/stretch"
)

// TestSpannerMatchesSharedMemory locks the central design invariant:
// the distributed simulation moves knowledge through mailboxes but
// decides exactly what the shared-memory Baswana–Sen decides, so for
// equal seeds the masks are bit-identical.
func TestSpannerMatchesSharedMemory(t *testing.T) {
	cases := []*graph.Graph{
		gen.Gnp(200, 0.1, 3),
		gen.Gnp(500, 0.03, 17),
		gen.Complete(90),
		gen.Barbell(30, 4),
		gen.Grid2D(20, 25),
		gen.WithRandomWeights(gen.Gnp(150, 0.2, 5), 0.1, 10, 9),
		shuffledMultigraph(400, 0.1, 3),
	}
	for gi, g := range cases {
		for _, seed := range []uint64{1, 7, 42} {
			d := runSpanner(t, dist.Mem(), g, 0, seed).Output
			adj := graph.NewAdjacency(g)
			s := spanner.Compute(g, adj, nil, spanner.Options{Seed: seed})
			if len(d.InSpanner) != len(s.InSpanner) {
				t.Fatalf("case %d: mask length mismatch", gi)
			}
			for i := range d.InSpanner {
				if d.InSpanner[i] != s.InSpanner[i] {
					t.Fatalf("case %d seed %d: edge %d dist=%v shared=%v",
						gi, seed, i, d.InSpanner[i], s.InSpanner[i])
				}
			}
			for v := range d.Center {
				if d.Center[v] != s.Center[v] {
					t.Fatalf("case %d seed %d: center[%d] dist=%d shared=%d",
						gi, seed, v, d.Center[v], s.Center[v])
				}
			}
		}
	}
}

// TestSpannerStretchBound spot-checks the Theorem 1 guarantee on the
// distributed output directly: every input edge has resistive stretch
// ≤ 2k−1 over the spanner.
func TestSpannerStretchBound(t *testing.T) {
	cases := []*graph.Graph{
		gen.Gnp(300, 0.08, 11),
		gen.WithRandomWeights(gen.Gnp(200, 0.15, 23), 0.5, 5, 29),
		gen.Torus2D(12, 14),
	}
	for gi, g := range cases {
		res := runSpanner(t, dist.Mem(), g, 0, 13).Output
		bound := float64(2*res.K - 1)
		if bad := stretch.VerifySpanner(g, res.InSpanner, bound); bad != -1 {
			t.Fatalf("case %d: edge %d violates stretch bound %v", gi, bad, bound)
		}
	}
}

// TestSpannerLedgerTheorem2 is the regression harness for the Theorem 2
// bounds: on 2^k-vertex graphs of comparable average degree, rounds
// grow at most quadratically in k and total words stay near-linear in
// m (within an O(log n) factor with a stable constant).
func TestSpannerLedgerTheorem2(t *testing.T) {
	type meas struct {
		k              int
		m              int
		rounds         int
		words          int64
		roundsPerK2    float64
		wordsPerMLighK float64
	}
	var ms []meas
	for _, k := range []int{7, 8, 9, 10, 11} {
		n := 1 << k
		g := gen.Gnp(n, 16/float64(n), uint64(3*n))
		res := runSpanner(t, dist.Mem(), g, 0, 5)
		st := res.Stats
		if st.Rounds <= 0 || st.Messages <= 0 || st.Words <= 0 {
			t.Fatalf("k=%d: empty ledger %+v", k, st)
		}
		if st.MaxMessageWords > 3 {
			t.Fatalf("k=%d: message width %d exceeds the O(log n)-bit bound", k, st.MaxMessageWords)
		}
		kk := float64(k)
		ms = append(ms, meas{
			k: k, m: g.M(), rounds: st.Rounds, words: st.Words,
			roundsPerK2:    float64(st.Rounds) / (kk * kk),
			wordsPerMLighK: float64(st.Words) / (float64(g.M()) * kk),
		})
	}
	// Absolute round bound: the construction spends ≤ i+3 rounds in
	// iteration i plus two join rounds, i.e. ≤ k²/2 + 3k + 2 ≪ 2k².
	for _, x := range ms {
		if x.rounds > 2*x.k*x.k {
			t.Fatalf("k=%d: %d rounds exceed 2k²=%d — not O(log² n) growth",
				x.k, x.rounds, 2*x.k*x.k)
		}
	}
	// Relative growth: the normalized ratios must not drift upward by
	// more than 25% across a doubling of n (they are flat-to-decreasing
	// when the bounds hold; drift means a super-logarithmic factor).
	for i := 1; i < len(ms); i++ {
		if ms[i].roundsPerK2 > 1.25*ms[i-1].roundsPerK2 {
			t.Fatalf("rounds/k² drifts: %v -> %v at k=%d",
				ms[i-1].roundsPerK2, ms[i].roundsPerK2, ms[i].k)
		}
		if ms[i].wordsPerMLighK > 1.25*ms[i-1].wordsPerMLighK {
			t.Fatalf("words/(m·k) drifts: %v -> %v at k=%d",
				ms[i-1].wordsPerMLighK, ms[i].wordsPerMLighK, ms[i].k)
		}
	}
}

// TestSparsifyMatchesCore: the distributed Algorithm 2 splits seeds
// exactly as core.ParallelSparsify, so the outputs are edge-identical
// and every spectral guarantee proven for the shared-memory path
// transfers to the distributed one.
func TestSparsifyMatchesCore(t *testing.T) {
	cases := []struct {
		g     *graph.Graph
		depth int // bundle depth; 0 is the default t
	}{
		{gen.Gnp(300, 0.15, 7), 0},
		{gen.Complete(120), 0},
		{gen.Grid2D(18, 18), 0},
		{shuffledMultigraph(400, 0.1, 3), 2}, // depth 2 leaves edges to sample
	}
	for gi, tc := range cases {
		g := tc.g
		for _, seed := range []uint64{1, 99} {
			d := runSparsify(t, dist.Mem(), g, 0.75, 4, tc.depth, seed)
			c, _, err := core.ParallelSparsify(g, 0.75, 4, sparsifyCfg(tc.depth, seed))
			if err != nil {
				t.Fatal(err)
			}
			if d.Output.N != c.N || d.Output.M() != c.M() {
				t.Fatalf("case %d seed %d: dist %v vs core %v", gi, seed, d.Output, c)
			}
			for i := range c.Edges {
				if d.Output.Edges[i] != c.Edges[i] {
					t.Fatalf("case %d seed %d: edge %d differs: %+v vs %+v",
						gi, seed, i, d.Output.Edges[i], c.Edges[i])
				}
			}
		}
	}
}

// TestBundleMaskMatchesBundlePackage: one sampling round's bundle mask
// agrees with internal/bundle's construction for the matching seed — the
// distributed layers really are the t-bundle of Definition 1.
func TestBundleMaskMatchesBundlePackage(t *testing.T) {
	g := gen.Gnp(250, 0.12, 31)
	seed := uint64(77)
	// One Algorithm 1 round at rho=2 uses the full eps and round seed
	// seed^(1*0xd1342543de82ef95); its bundle seed adds ^0xb5297a4d3f8c6e21.
	roundSeed := seed ^ 0xd1342543de82ef95
	cfg := core.DefaultConfig(roundSeed)
	eps := 0.5
	tLayers := cfg.BundleThickness(g.N, eps)
	adj := graph.NewAdjacency(g)
	b := bundle.Compute(g, adj, nil, bundle.Options{T: tLayers, Seed: roundSeed ^ 0xb5297a4d3f8c6e21})
	d := runSparsify(t, dist.Mem(), g, eps, 2, 0, seed)
	// Every bundle edge is kept verbatim in the output with its
	// original weight; off-bundle survivors are reweighted ×4.
	kept := make(map[[2]int32]float64)
	for _, e := range d.Output.Edges {
		kept[[2]int32{e.U, e.V}] = e.W
	}
	for i, e := range g.Edges {
		if b.InBundle[i] {
			if w, ok := kept[[2]int32{e.U, e.V}]; !ok || w != e.W {
				t.Fatalf("bundle edge %d (%d,%d) missing or reweighted (w=%v)", i, e.U, e.V, w)
			}
		}
	}
}

// TestSparsifyTheorem5Acceptance is the headline acceptance check: on a
// 4096-vertex random graph, the distributed sparsifier cuts the edge
// count below ρ·n·log₂n, passes the spectral quality check at the
// requested eps, and bills a ledger whose round count is polylogarithmic
// (≤ the construction's c·t·⌈log₂ρ⌉·log²n budget, far below any
// polynomial in n) with near-linear total words.
func TestSparsifyTheorem5Acceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-vertex acceptance run skipped in -short")
	}
	// Density matters: a t-bundle holds ~t·n·log n edges, and the
	// sampling only bites on what's left outside it, so the graph must
	// have m ≫ depth·n·log n for the round to shrink anything (on
	// sparser inputs the algorithm degenerates to the identity — the
	// correct but uninteresting regime the paper notes). Average degree
	// 96 against a depth-3 bundle leaves ~2/3 of the edges exposed.
	n := 4096
	depth := 3
	g := gen.Gnp(n, 96/float64(n), 12345)
	if !graph.IsConnected(g) {
		t.Fatal("test graph disconnected; pick another seed")
	}
	eps, rho := 0.75, 4.0
	res := runSparsify(t, dist.Mem(), g, eps, rho, depth, 9)
	st := res.Stats
	if st.Rounds <= 0 || st.Messages <= 0 || st.Words <= 0 {
		t.Fatalf("empty ledger: %+v", st)
	}
	logn := math.Log2(float64(n))
	if maxEdges := rho * float64(n) * logn; float64(res.Output.M()) > maxEdges {
		t.Fatalf("sparsifier has %d edges, above ρ·n·log n = %v", res.Output.M(), maxEdges)
	}
	if res.Output.M() >= g.M() {
		t.Fatalf("no reduction: %d -> %d", g.M(), res.Output.M())
	}
	// Round budget: ⌈log₂ρ⌉ iterations × t layers × (k²/2+3k+2) rounds
	// per layer, plus one sampling round each. Charge double for slack;
	// this is Θ(log² n) per layer and polylog overall.
	iters := int(math.Ceil(math.Log2(rho)))
	perLayer := logn*logn/2 + 3*logn + 2
	budget := 2 * float64(iters) * (float64(depth)*perLayer + 1)
	if float64(st.Rounds) > budget {
		t.Fatalf("%d rounds exceed the Theorem 5 budget %v (t=%d)", st.Rounds, budget, depth)
	}
	// Near-linear communication: total words within t·log n·log ρ of m,
	// with constant slack.
	wordBudget := 8 * float64(depth) * float64(iters) * logn * float64(g.M())
	if float64(st.Words) > wordBudget {
		t.Fatalf("%d words exceed near-linear budget %v", st.Words, wordBudget)
	}
	if st.MaxMessageWords > 3 {
		t.Fatalf("message width %d above O(log n) bits", st.MaxMessageWords)
	}
	// Spectral quality at the requested eps, via the iterative verifier.
	b, err := spectral.ApproxFactor(g, res.Output, spectral.Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Epsilon(); got > eps {
		t.Fatalf("measured eps %v exceeds requested %v (bounds %+v)", got, eps, b)
	}
}

// TestSparsifyQualityVsBaseline compares the distributed sparsifier
// against the Spielman–Srivastava effective-resistance baseline at a
// similar output size: both must meet the eps target on a dense graph,
// measured exactly with the dense verifier.
func TestSparsifyQualityVsBaseline(t *testing.T) {
	g := gen.Gnp(180, 0.5, 41)
	eps := 0.75
	d := runSparsify(t, dist.Mem(), g, eps, 4, 0, 3)
	bd, err := spectral.DenseApproxFactor(g, d.Output)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Epsilon() > eps {
		t.Fatalf("distributed sparsifier eps %v > %v", bd.Epsilon(), eps)
	}
	ss, err := baseline.SpielmanSrivastava(g, baseline.SSOptions{Eps: eps, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := spectral.DenseApproxFactor(g, ss)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Epsilon() > eps {
		t.Fatalf("baseline eps %v > %v (verifier broken?)", bs.Epsilon(), eps)
	}
	t.Logf("dist: m=%d eps=%.3f; SS baseline: m=%d eps=%.3f",
		d.Output.M(), bd.Epsilon(), ss.M(), bs.Epsilon())
}

// TestStatsLedgerConsistency: phase rows partition the totals, and the
// degenerate inputs keep a sane ledger.
func TestStatsLedgerConsistency(t *testing.T) {
	g := gen.Gnp(150, 0.2, 19)
	res := runSparsify(t, dist.Mem(), g, 0.9, 4, 0, 11)
	st := res.Stats
	var rounds int
	var msgs, words int64
	for _, p := range st.Phases {
		rounds += p.Rounds
		msgs += p.Messages
		words += p.Words
	}
	if rounds != st.Rounds || msgs != st.Messages || words != st.Words {
		t.Fatalf("phases don't partition totals: %+v", st)
	}
	if st.Words < st.Messages {
		t.Fatalf("words %d < messages %d", st.Words, st.Messages)
	}
	// rho <= 1 is the identity with an empty ledger.
	id := runSparsify(t, dist.Mem(), g, 0.5, 1, 0, 11)
	if id.Output.M() != g.M() || id.Stats.Rounds != 0 || id.Stats.Messages != 0 {
		t.Fatalf("rho<=1 should be a free identity: %+v", id.Stats)
	}
	// Edgeless graphs still terminate with a valid (message-free) run.
	empty := runSpanner(t, dist.Mem(), graph.New(10), 0, 1)
	if graph.CountTrue(empty.Output.InSpanner) != 0 || empty.Stats.Messages != 0 {
		t.Fatalf("edgeless ledger: %+v", empty.Stats)
	}
	// k=1 keeps every edge without communication.
	k1 := runSpanner(t, dist.Mem(), gen.Complete(10), 1, 1)
	if graph.CountTrue(k1.Output.InSpanner) != gen.Complete(10).M() || k1.Stats.Messages != 0 {
		t.Fatalf("k=1 spanner must be the graph itself: %+v", k1.Stats)
	}
}
