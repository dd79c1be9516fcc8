package experiments

import (
	"fmt"
	"time"

	"repro/internal/dist"
	"repro/internal/gen"
)

// E13NetTransport compares the transport specs of the distributed
// engine on one sparsification job, all through the single Engine.Run
// entry point: the in-memory simulation (Mem), the sharded in-process
// one (Sharded), which bill messages without moving them, and the
// network path (Mesh) running
// coordinator + P−1 workers over real loopback TCP sockets, the
// workers linked directly to each other and each materializing only
// its partition. The m_out column must be constant — the transports
// move messages, not decisions — while the wire columns split the
// cost of distribution: crossWords is the model-level bill (identical
// for sharded and mesh at equal P), wireBytes is what the network
// transport actually wrote to sockets, framing included, and
// dataBytes is its worker↔worker round-batch subset, each batch
// written once on a direct link. wkrPeakWords is the per-worker
// memory story: the largest edge-table footprint (words) any single
// process's working view reached — Θ(m) on the single-process specs,
// O(m_incident) ≈ m/P + boundary on the partitioned network run,
// shrinking as P grows.
func E13NetTransport(s Scale) *Table {
	t := &Table{
		ID:     "E13",
		Title:  "transport comparison: in-memory vs sharded vs network (full mesh)",
		Claim:  "Thm 5 substrate: one Engine.Run executes the same rounds over goroutines or sockets with identical outputs; only the wire bill and per-worker footprint change",
		Header: []string{"transport", "P", "millis", "m_out", "rounds", "crossWords", "wireBytes", "dataBytes", "wkrPeakWords"},
	}
	n, deg := 1<<12, 8.0
	depth, rho := 1, 2.0
	ps := []int{1, 2, 4}
	if s == Full {
		n, deg = 1<<14, 8.0
		depth, rho = 2, 4.0
		ps = []int{1, 2, 4, 8}
	}
	g := gen.Gnp(n, deg/float64(n), 163)
	job := dist.SparsifyJob(0.5, rho, dist.SparsifyDefaults(depth, 29))
	baseM := -1
	row := func(name string, p int, ms float64, mOut, rounds int, crossWords, wireBytes, dataBytes int64, peakWords int) {
		if baseM < 0 {
			baseM = mOut
		} else if mOut != baseM {
			t.Notes = append(t.Notes,
				fmt.Sprintf("DETERMINISM VIOLATION: %s P=%d produced m=%d, expected %d", name, p, mOut, baseM))
		}
		wb, db := "-", "-"
		if wireBytes >= 0 {
			wb = fmt.Sprintf("%d", wireBytes)
			db = fmt.Sprintf("%d", dataBytes)
		}
		t.AddRow(name, inum(p), fnum(ms), inum(mOut), inum(rounds),
			fmt.Sprintf("%d", crossWords), wb, db, inum(peakWords))
	}
	sweep := func(name string, order []int, spec func(p int) dist.TransportSpec, wired bool) {
		for _, p := range order {
			start := time.Now()
			res, err := dist.Run(dist.NewEngine(spec(p), g), job)
			if err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("%s FAILURE at P=%d: %v", name, p, err))
				continue
			}
			wireBytes, dataBytes := int64(-1), int64(-1)
			if wired {
				wireBytes, dataBytes = res.WireBytes, res.DataWireBytes
			}
			row(name, p, millisSince(start), res.Output.M(), res.Stats.Rounds,
				res.Stats.CrossShardWords, wireBytes, dataBytes, res.PeakViewWords)
		}
	}

	sweep("mem", []int{1}, func(int) dist.TransportSpec { return dist.Mem() }, false)
	sweep("sharded", ps[1:], dist.Sharded, false)
	sweep("mesh", ps, dist.Mesh, true)

	t.Notes = append(t.Notes,
		fmt.Sprintf("n=%d m=%d: identical m_out and rounds on every transport spec at every P", n, g.M()),
		"mesh P=1 is a single process with no sockets: the partition-view overhead alone",
		"mesh workers send worker<->worker batches over direct links, each exactly once; dataBytes is 0 at P=2, where the only worker talks to the coordinator alone",
		"wkrPeakWords = max per-process edge-table footprint across rounds: Θ(m) single-process, O(m/P + boundary) on mesh")
	return t
}

func millisSince(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}
