package experiments

import (
	"bytes"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestRegistryComplete checks every catalogued experiment is runnable
// and renders a non-empty table.
func TestRegistryComplete(t *testing.T) {
	if len(Order) != len(Registry) {
		t.Fatalf("Order (%d) and Registry (%d) out of sync", len(Order), len(Registry))
	}
	for _, id := range Order {
		if _, ok := Registry[id]; !ok {
			t.Fatalf("experiment %s in Order but not Registry", id)
		}
	}
}

func renderOf(t *testing.T, tab *Table) string {
	t.Helper()
	var buf bytes.Buffer
	tab.Render(&buf)
	s := buf.String()
	if !strings.Contains(s, tab.ID) || len(tab.Rows) == 0 {
		t.Fatalf("table %s rendered empty or malformed:\n%s", tab.ID, s)
	}
	return s
}

// cell parses a table cell as float, tolerating inf markers.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.Fields(s)[0]
	if strings.HasPrefix(s, "inf") {
		return math.Inf(1)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestE1LeverageRatiosBelowOne(t *testing.T) {
	tab := E1BundleLeverage(Quick)
	renderOf(t, tab)
	for _, row := range tab.Rows {
		if row[6] == "-" {
			continue
		}
		if r := cell(t, row[6]); r > 1 {
			t.Fatalf("Lemma 1 violated in row %v: ratio %v", row, r)
		}
	}
}

func TestE2StretchWithinBound(t *testing.T) {
	tab := E2Spanner(Quick)
	renderOf(t, tab)
	for _, row := range tab.Rows {
		st := cell(t, row[5])
		bound := cell(t, row[6])
		if !math.IsNaN(st) && st > bound {
			t.Fatalf("stretch %v exceeds bound %v", st, bound)
		}
		// The greedy reference must not exceed the BS size (it is the
		// size-optimal sequential algorithm).
		bs := cell(t, row[2])
		greedy := cell(t, row[4])
		if greedy > bs {
			t.Fatalf("greedy size %v above Baswana–Sen %v", greedy, bs)
		}
	}
}

func TestE3MessageWidthConstant(t *testing.T) {
	tab := E3DistributedSpanner(Quick)
	renderOf(t, tab)
	for _, row := range tab.Rows {
		if w := cell(t, row[6]); w != 3 {
			t.Fatalf("message width %v != 3 words", w)
		}
	}
}

func TestE4PracticalRowsMeetEps(t *testing.T) {
	tab := E4ParallelSample(Quick)
	renderOf(t, tab)
	for _, row := range tab.Rows {
		eps := cell(t, row[2])
		meas := cell(t, row[8])
		if row[1] == "practical" && meas > eps {
			t.Fatalf("practical row missed target: %v", row)
		}
		if row[1] == "theory" && meas > 1e-6 {
			t.Fatalf("theory row should be (near-)identity at this scale: %v", row)
		}
	}
}

func TestE5EpsWithinTarget(t *testing.T) {
	tab := E5ParallelSparsify(Quick)
	renderOf(t, tab)
	for _, row := range tab.Rows {
		eps := cell(t, row[5])
		meas := cell(t, row[6])
		if meas > eps {
			t.Fatalf("sparsify eps %v > target %v (row %v)", meas, eps, row)
		}
	}
}

func TestE6OursNeverDisconnects(t *testing.T) {
	tab := E6Baselines(Quick)
	renderOf(t, tab)
	sawUniformFailure := false
	for _, row := range tab.Rows {
		if strings.Contains(row[1], "ours") && strings.Contains(row[4], "inf") {
			t.Fatalf("our sparsifier disconnected %s", row[0])
		}
		if strings.Contains(row[1], "uniform") && row[0] == "barbell40" {
			// The disconnect count is embedded as [disc X/50].
			if !strings.Contains(row[4], "disc 0/") {
				sawUniformFailure = true
			}
		}
	}
	if !sawUniformFailure {
		t.Fatal("uniform sampling never disconnected the barbell — comparison lost its teeth")
	}
}

func TestE7ChainBeatsJacobi(t *testing.T) {
	tab := E7SolverChain(Quick)
	renderOf(t, tab)
	for _, row := range tab.Rows {
		if row[7] == "-" {
			continue
		}
		chain := cell(t, row[6])
		jacobi := cell(t, row[7])
		if chain >= jacobi {
			t.Fatalf("chain iters %v >= jacobi %v on %s", chain, jacobi, row[0])
		}
	}
}

func TestE8RunsAndReportsSpeedup(t *testing.T) {
	tab := E8Scaling(Quick)
	renderOf(t, tab)
	if s := cell(t, tab.Rows[0][2]); s != 1 {
		t.Fatalf("P=1 speedup %v != 1", s)
	}
}

func TestE9SizesGrowWithT(t *testing.T) {
	tab := E9BundleAblation(Quick)
	renderOf(t, tab)
	prevBundle := -1.0
	for _, row := range tab.Rows {
		b := cell(t, row[1])
		if b < prevBundle {
			t.Fatalf("bundle size decreased with t: %v", tab.Rows)
		}
		prevBundle = b
	}
}

func TestE10ExponentNearTwoNotFour(t *testing.T) {
	tab := E10EpsDependence(Quick)
	renderOf(t, tab)
	// The fitted exponent lives in the first note.
	var slope float64
	found := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "fitted exponent") {
			fields := strings.Fields(n)
			for _, f := range fields {
				if v, err := strconv.ParseFloat(strings.TrimSuffix(f, ""), 64); err == nil {
					slope = v
					found = true
					break
				}
			}
		}
	}
	if !found {
		t.Fatal("fitted exponent note missing")
	}
	if math.Abs(slope-2) > math.Abs(slope-4) {
		t.Fatalf("fitted exponent %v closer to KP's 4 than to the paper's 2", slope)
	}
}

func TestE12ShardedSweepStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("2^14-vertex sharded sweep skipped in -short")
	}
	tab := E12ShardedSparsify(Quick)
	renderOf(t, tab)
	if s := cell(t, tab.Rows[0][2]); s != 1 {
		t.Fatalf("first-row speedup %v != 1", s)
	}
	baseM := cell(t, tab.Rows[0][3])
	baseRounds := cell(t, tab.Rows[0][4])
	for i, row := range tab.Rows {
		// Outputs and round counts are transport-independent: any drift
		// across P is a determinism bug, not noise.
		if m := cell(t, row[3]); m != baseM {
			t.Fatalf("row %d: m_out %v != %v", i, m, baseM)
		}
		if r := cell(t, row[4]); r != baseRounds {
			t.Fatalf("row %d: rounds %v != %v", i, r, baseRounds)
		}
		p := cell(t, row[0])
		cross := cell(t, row[6])
		if p == 1 && cross != 0 {
			t.Fatalf("P=1 reports cross-shard words: %v", row)
		}
		if p > 1 && cross == 0 {
			t.Fatalf("P=%v reports no cross-shard words: %v", p, row)
		}
	}
	for _, n := range tab.Notes {
		if strings.Contains(n, "DETERMINISM VIOLATION") {
			t.Fatal(n)
		}
	}
}

func TestE13TransportComparisonStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("2^12-vertex transport comparison skipped in -short")
	}
	tab := E13NetTransport(Quick)
	renderOf(t, tab)
	if len(tab.Rows) < 5 {
		t.Fatalf("expected mem + sharded + mesh rows, got %d", len(tab.Rows))
	}
	baseM := cell(t, tab.Rows[0][3])
	baseRounds := cell(t, tab.Rows[0][4])
	sawMesh := false
	for i, row := range tab.Rows {
		// The transports move messages, not decisions: output size and
		// round count must be identical on every row.
		if m := cell(t, row[3]); m != baseM {
			t.Fatalf("row %d: m_out %v != %v", i, m, baseM)
		}
		if r := cell(t, row[4]); r != baseRounds {
			t.Fatalf("row %d: rounds %v != %v", i, r, baseRounds)
		}
		if row[0] == "mesh" {
			sawMesh = true
			if p := cell(t, row[1]); p > 1 {
				if wb := cell(t, row[6]); wb <= 0 {
					t.Fatalf("mesh P=%v wrote no bytes: %v", p, row)
				}
			}
		}
	}
	if !sawMesh {
		t.Fatal("no mesh transport rows")
	}
	for _, n := range tab.Notes {
		if strings.Contains(n, "VIOLATION") || strings.Contains(n, "FAILURE") {
			t.Fatal(n)
		}
	}
}

// TestE14ServeLoadStructure boots the real serve stack (loopback TCP,
// concurrent writer + readers) at Quick scale and checks the harness
// reports what the acceptance needs: a positive ingest rate per graph,
// query latency rows with real counts, and a clean bitid audit — any
// determinism violation or client failure lands in the notes and fails
// here.
func TestE14ServeLoadStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("serve load harness skipped in -short")
	}
	tab := E14ServeLoad(Quick)
	renderOf(t, tab)
	ingestRows, queryRows := 0, 0
	for _, row := range tab.Rows {
		switch row[7] {
		case "ingest":
			ingestRows++
			if rate := cell(t, row[6]); rate <= 0 {
				t.Fatalf("non-positive ingest rate: %v", row)
			}
			if epochs := cell(t, row[4]); epochs < 1 {
				t.Fatalf("no epochs published: %v", row)
			}
			if row[11] != "ok" {
				t.Fatalf("bitid audit failed: %v", row)
			}
		case "sparsify", "spanner", "stat":
			queryRows++
			if c := cell(t, row[8]); c < 1 {
				t.Fatalf("query row with no queries: %v", row)
			}
			if p50, p99 := cell(t, row[9]), cell(t, row[10]); p50 < 0 || p99 < p50 {
				t.Fatalf("latency quantiles inconsistent: %v", row)
			}
		}
	}
	if ingestRows < 2 {
		t.Fatalf("expected an ingest row per graph, got %d", ingestRows)
	}
	if queryRows == 0 {
		t.Fatal("no query latency rows — readers never ran")
	}
	for _, n := range tab.Notes {
		if strings.Contains(n, "VIOLATION") || strings.Contains(n, "FAILURE") {
			t.Fatal(n)
		}
	}
}

// TestE15ScaleStructure validates the raw-speed experiment end to end.
// Unlike every other experiment, E15 Quick is a ≥10^7-edge run by
// design (that is the quantity it gates), so this test only runs when
// REPRO_E15=1 — it would multiply the package's test time severalfold
// for everyone else. cmd/bench and the CI bench job exercise E15 on
// every PR regardless.
func TestE15ScaleStructure(t *testing.T) {
	if os.Getenv("REPRO_E15") != "1" {
		t.Skip("10^7-edge scale run skipped; set REPRO_E15=1 to enable")
	}
	tab := E15ScaleSpanner(Quick)
	renderOf(t, tab)
	if len(tab.Rows) < 3 {
		t.Fatalf("expected at least the {1,2,4} sweep, got %d rows", len(tab.Rows))
	}
	if s := cell(t, tab.Rows[0][5]); s != 1 {
		t.Fatalf("P=1 speedup %v != 1", s)
	}
	baseM := cell(t, tab.Rows[0][2])
	if baseM < 1e7 {
		t.Fatalf("E15 must run >=10^7 edges even at Quick scale, got m_out base %v", baseM)
	}
	baseRounds := cell(t, tab.Rows[0][3])
	for i, row := range tab.Rows {
		if m := cell(t, row[2]); m != baseM {
			t.Fatalf("row %d: m_out %v != %v", i, m, baseM)
		}
		if r := cell(t, row[3]); r != baseRounds {
			t.Fatalf("row %d: rounds %v != %v", i, r, baseRounds)
		}
	}
	for _, n := range tab.Notes {
		if strings.Contains(n, "VIOLATION") || strings.Contains(n, "FAILURE") {
			t.Fatal(n)
		}
	}
}

func TestFitSlope(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7}
	if s := fitSlope(xs, ys); math.Abs(s-2) > 1e-12 {
		t.Fatalf("slope %v want 2", s)
	}
	if !math.IsNaN(fitSlope([]float64{1}, []float64{1})) {
		t.Fatal("degenerate fit should be NaN")
	}
}

func TestTableRenderAlignment(t *testing.T) {
	tab := &Table{ID: "T", Title: "x", Claim: "y", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.Notes = append(tab.Notes, "n")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"T — x", "claim: y", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
