package pram

import (
	"sync"
	"testing"
)

func TestNilTrackerIsSafe(t *testing.T) {
	var tr *Tracker
	tr.ParFor(10, 1)
	if tr.Work() != 0 || tr.Depth() != 0 {
		t.Fatal("nil tracker accumulated")
	}
}

func TestParForDepthIsPerItem(t *testing.T) {
	tr := New()
	tr.ParFor(1000, 2)
	if tr.Work() != 1000 {
		t.Fatalf("work=%d", tr.Work())
	}
	if tr.Depth() != 2 {
		t.Fatalf("depth=%d", tr.Depth())
	}
}

func TestConcurrentAccumulation(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				tr.ParFor(1, 1)
			}
		}()
	}
	wg.Wait()
	if tr.Work() != 8000 {
		t.Fatalf("work=%d want 8000", tr.Work())
	}
}

func TestNegativeCostsIgnored(t *testing.T) {
	tr := New()
	tr.ParFor(-1, -1)
	if tr.Work() != 0 || tr.Depth() != 0 {
		t.Fatalf("negative costs accumulated: work=%d depth=%d", tr.Work(), tr.Depth())
	}
}
