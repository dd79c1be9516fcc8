package dist_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
)

// goldenLedgers pins every Stats total and every phase row of the
// ledger golden runs, by job/input and shard count: Mem() bills on one
// shard, and Sharded(3) and Mesh(3) must both match the P = 3 rows,
// cross-shard split included. The first line is rounds, messages,
// words, widest message, cross-shard messages and words; each phase
// line is its name, rounds, messages, words, cross-shard messages and
// words. The values are absolute: the equivalence matrix and the
// sharded-ledger tests compare transports that share one billing code,
// and a post record is 28 bytes on the wire whatever it counts, so
// only these pins see a bill that moves on every transport at once.
var goldenLedgers = map[string]map[int][]string{
	"spanner/multigraph": {
		1: {"54 230715 456971 3 0 0", "spanner/broadcast 28 2377 2377 0 0", "spanner/exchange 8 113128 339384 0 0",
			"spanner/decide 8 10276 10276 0 0", "spanner/update 8 99398 99398 0 0", "spanner/join 2 5536 5536 0 0"},
		3: {"54 230715 456971 3 152270 301542", "spanner/broadcast 28 2377 2377 1603 1603", "spanner/exchange 8 113128 339384 74636 223908",
			"spanner/decide 8 10276 10276 6749 6749", "spanner/update 8 99398 99398 65594 65594", "spanner/join 2 5536 5536 3688 3688"},
	},
	"sparsify/multigraph": {
		1: {"208 634298 1246642 3 0 0", "spanner/broadcast 102 9498 9498 0 0", "spanner/exchange 32 306172 918516 0 0",
			"spanner/decide 32 33569 33569 0 0", "spanner/update 32 266186 266186 0 0", "spanner/join 8 13733 13733 0 0",
			"sample 2 5140 5140 0 0"},
		3: {"208 634298 1246642 3 418820 823052", "spanner/broadcast 102 9498 9498 6289 6289", "spanner/exchange 32 306172 918516 202116 606348",
			"spanner/decide 32 33569 33569 22122 22122", "spanner/update 32 266186 266186 175786 175786", "spanner/join 8 13733 13733 9113 9113",
			"sample 2 5140 5140 3394 3394"},
	},
	"spanner/gnp": {
		1: {"48 91126 180370 3 0 0", "spanner/broadcast 22 1987 1987 0 0", "spanner/exchange 8 44622 133866 0 0",
			"spanner/decide 8 6401 6401 0 0", "spanner/update 8 36764 36764 0 0", "spanner/join 2 1352 1352 0 0"},
		3: {"48 91126 180370 3 61242 121162", "spanner/broadcast 22 1987 1987 1386 1386", "spanner/exchange 8 44622 133866 29960 89880",
			"spanner/decide 8 6401 6401 4352 4352", "spanner/update 8 36764 36764 24632 24632", "spanner/join 2 1352 1352 912 912"},
	},
	"sparsify/gnp": {
		1: {"208 250571 494251 3 0 0", "spanner/broadcast 102 7235 7235 0 0", "spanner/exchange 32 121840 365520 0 0",
			"spanner/decide 32 21834 21834 0 0", "spanner/update 32 97508 97508 0 0", "spanner/join 8 827 827 0 0",
			"sample 2 1327 1327 0 0"},
		3: {"208 250571 494251 3 170876 336984", "spanner/broadcast 102 7235 7235 5132 5132", "spanner/exchange 32 121840 365520 83054 249162",
			"spanner/decide 32 21834 21834 15052 15052", "spanner/update 32 97508 97508 66308 66308", "spanner/join 8 827 827 578 578",
			"sample 2 1327 1327 752 752"},
	},
}

// ledgerLines renders s in goldenLedgers' form.
func ledgerLines(s dist.Stats) []string {
	lines := []string{fmt.Sprintf("%d %d %d %d %d %d", s.Rounds, s.Messages, s.Words, s.MaxMessageWords, s.CrossShardMessages, s.CrossShardWords)}
	for _, p := range s.Phases {
		lines = append(lines, fmt.Sprintf("%s %d %d %d %d %d", p.Name, p.Rounds, p.Messages, p.Words, p.CrossShardMessages, p.CrossShardWords))
	}
	return lines
}

// TestLedgerGolden runs both jobs on a shuffled weighted multigraph and
// on a plain G(n, p), on Mem(), Sharded(3) and Mesh(3), and compares
// each ledger with its pin.
func TestLedgerGolden(t *testing.T) {
	inputs := []struct {
		name string
		g    *graph.Graph
	}{
		{"multigraph", shuffledMultigraph(400, 0.1, 3)},
		{"gnp", gen.Gnp(350, 0.08, 13)},
	}
	specs := []struct {
		name string
		spec dist.TransportSpec
	}{
		{"mem", dist.Mem()},
		{"sharded3", dist.Sharded(3)},
		{"mesh3", dist.Mesh(3).WithTimeout(30 * time.Second)},
	}
	for _, in := range inputs {
		for _, sp := range specs {
			for _, job := range []string{"spanner", "sparsify"} {
				key := job + "/" + in.name
				t.Run(key+"/"+sp.name, func(t *testing.T) {
					var st dist.Stats
					if job == "spanner" {
						st = runSpanner(t, sp.spec, in.g, 0, 5).Stats
					} else {
						st = runSparsify(t, sp.spec, in.g, 0.5, 4, 2, 41).Stats
					}
					got, want := ledgerLines(st), goldenLedgers[key][st.Shards]
					if !slices.Equal(got, want) {
						t.Errorf("ledger at P=%d:\n got %q\nwant %q", st.Shards, got, want)
					}
				})
			}
		}
	}
}
