// Package pram provides work/depth cost accounting in the CRCW PRAM
// model used by the paper's Theorems 1, 4 and 5.
//
// The paper states its parallel guarantees as total work and parallel
// time (depth) on an idealized machine with unbounded processors. Real
// wall-clock on a fixed host cannot exhibit those asymptotics, so the
// algorithms in this repository optionally record their *modeled* costs:
// a parallel loop of n unit-cost iterations adds n to work but only its
// critical path (the per-iteration cost, i.e. 1 for a flat loop) to
// depth.
// The experiment harness checks the recorded totals against the paper's
// O(m log n)-style bounds.
package pram

import "sync/atomic"

// Tracker accumulates modeled PRAM work and depth. A nil *Tracker is
// valid and records nothing, so instrumented algorithms need no
// conditionals at call sites. Tracker is safe for concurrent use.
type Tracker struct {
	work  atomic.Int64
	depth atomic.Int64
}

// New returns an empty tracker.
func New() *Tracker { return &Tracker{} }

// Work returns the accumulated modeled work.
func (t *Tracker) Work() int64 {
	if t == nil {
		return 0
	}
	return t.work.Load()
}

// Depth returns the accumulated modeled depth (critical path length).
func (t *Tracker) Depth() int64 {
	if t == nil {
		return 0
	}
	return t.depth.Load()
}

// ParFor records a flat parallel loop performing total units of work
// whose iterations each cost at most perItem: work += total,
// depth += perItem.
func (t *Tracker) ParFor(total, perItem int64) {
	if t == nil {
		return
	}
	if total > 0 {
		t.work.Add(total)
	}
	if perItem > 0 {
		t.depth.Add(perItem)
	}
}
