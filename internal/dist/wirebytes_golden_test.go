package dist_test

// Golden WireBytes pins for the network transport. WireBytes is
// computed at writeFrame append time, before any batching, so the
// vectored-write and async double-buffered paths must reproduce the
// per-frame protocol's byte count exactly — these values must never
// drift without a deliberate wire-format bump (TestJobWireSchemas pins
// the frame encodings themselves; this pins the end-to-end byte
// totals, framing and bring-up included).

import (
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
)

// goldenWire pins the {sparsify, spanner} WireBytes totals of the
// golden runs (gen.Gnp(240, 0.1, 7), seed 11) by P, and goldenData
// their worker↔worker data subset. At P = 2 the only worker talks to
// the coordinator alone (no direct links, DataWireBytes 0); at P = 3
// the two workers exchange their batches over one direct link, each
// batch written exactly once, beside one 60-byte tally frame each way
// per round. The absolute totals are pinned so the handshake and mesh
// bring-up overhead cannot silently grow.
var (
	goldenWire = map[int][2]int64{
		2: {2360192, 637284},
		3: {3349486, 879938},
	}
	goldenData = map[int][2]int64{
		2: {0, 0}, // no worker↔worker traffic at P=2
		3: {1522060, 338592},
	}
)

// checkWireGolden compares one P's {sparsify, spanner} runs with the
// pins.
func checkWireGolden(t *testing.T, p int, sp dist.Result[*graph.Graph], sn dist.Result[*dist.SpannerOutput]) {
	t.Helper()
	if sp.WireBytes != goldenWire[p][0] || sn.WireBytes != goldenWire[p][1] {
		t.Errorf("P=%d WireBytes = {%d, %d}, want {%d, %d} (wire protocol changed?)",
			p, sp.WireBytes, sn.WireBytes, goldenWire[p][0], goldenWire[p][1])
	}
	if sp.DataWireBytes != goldenData[p][0] || sn.DataWireBytes != goldenData[p][1] {
		t.Errorf("P=%d DataWireBytes = {%d, %d}, want {%d, %d}",
			p, sp.DataWireBytes, sn.DataWireBytes, goldenData[p][0], goldenData[p][1])
	}
}

// TestMeshWireBytesGolden pins the Mesh spec's byte totals — the bytes
// of any Net + Worker fleet, whose drivers Mesh runs in one process.
func TestMeshWireBytesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback socket runs skipped in -short")
	}
	g := gen.Gnp(240, 0.1, 7)
	for _, p := range []int{2, 3} {
		spec := dist.Mesh(p).WithTimeout(30 * time.Second)
		checkWireGolden(t, p, runSparsify(t, spec, g, 0.75, 4, 0, 11), runSpanner(t, spec, g, 0, 11))
	}
}
