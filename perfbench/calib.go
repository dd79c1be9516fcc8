package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"
)

// The machine-speed calibration. On two CPUs shared with other machines
// the whole box runs faster or slower for minutes at a time: in one set
// of ten runs every op of a run moved together, by up to 1.5x between
// runs. A fixed kernel that calls no repository code, timed between the
// ops of a run, sees the same swings, so the end-to-end figures are
// reported at a fixed reference speed: the measured time times
// calNominalMs over the kernel's time in that run. A change to the
// repository cannot move the kernel, so it moves only the op times.
//
// The kernel runs one copy per GOMAXPROCS slot at once, as the timed ops
// use every CPU. Timed between calls over nine minutes of drift, the
// two-copy kernel tracked Sharded(2) and core.ParallelSparsify more
// closely than one copy did (ratio spread 0.043 against 0.057 for
// Sharded(2), 0.049 against 0.066 for core, windows of six calls).
const (
	// calNominalMs is the reference kernel time: about what the kernel
	// takes on a quiet 2-CPU box, so reported figures stay near the
	// measured ones.
	calNominalMs = 55
	calChaseLen  = 1 << 23 // 32 MB of uint32: a cache-missing pointer chase
	calChaseHops = 1 << 18
	calSortLen   = 1 << 17
)

// calibrator holds the kernel's inputs and the kernel times of one phase.
type calibrator struct {
	next    []uint32 // one random cycle through all entries
	keys    []uint64
	scratch [][]uint64 // one sort buffer per copy of the kernel
	sinks   []uint64
	samples []float64
}

// newCalibrator builds the kernel's inputs from a fixed seed, so every
// run times the same kernel.
func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(1))
	w := runtime.GOMAXPROCS(0)
	c := &calibrator{next: make([]uint32, calChaseLen), keys: make([]uint64, calSortLen),
		scratch: make([][]uint64, w), sinks: make([]uint64, w)}
	for i := range c.next {
		c.next[i] = uint32(i)
	}
	// Sattolo's shuffle leaves a single cycle, so each chase visits
	// calChaseHops distinct entries.
	for i := len(c.next) - 1; i > 0; i-- {
		j := rng.Intn(i)
		c.next[i], c.next[j] = c.next[j], c.next[i]
	}
	for i := range c.keys {
		c.keys[i] = rng.Uint64()
	}
	for i := range c.scratch {
		c.scratch[i] = make([]uint64, calSortLen)
	}
	return c
}

// run times the kernel once and keeps the sample: every copy chases the
// shared cycle from its own start and sorts its own copy of the keys.
func (c *calibrator) run() {
	start := time.Now()
	var wg sync.WaitGroup
	for k := range c.scratch {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			p := uint32(k * 7919)
			for i := 0; i < calChaseHops; i++ {
				p = c.next[p]
			}
			copy(c.scratch[k], c.keys)
			slices.Sort(c.scratch[k])
			c.sinks[k] += uint64(p) + c.scratch[k][0]
		}(k)
	}
	wg.Wait()
	c.samples = append(c.samples, ms(time.Since(start)))
}

// factor returns calNominalMs over the median of the phase's kernel
// times, and starts a new phase.
func (c *calibrator) factor() float64 {
	fmt.Printf("# calibration samples (ms): %.2f\n", c.samples)
	f := calNominalMs / median(c.samples)
	c.samples = c.samples[:0]
	return f
}
