package fanout

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestWorkersResolution pins the Parallelism -> pool-size mapping.
func TestWorkersResolution(t *testing.T) {
	if got := Workers(0, 1000); got != runtime.NumCPU() {
		t.Errorf("default workers = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(4, 2); got != 2 {
		t.Errorf("workers capped by task count: got %d, want 2", got)
	}
	if got := Workers(4, 100); got != 4 {
		t.Errorf("workers = %d, want 4", got)
	}
	if got := Workers(-3, 1000); got != runtime.NumCPU() {
		t.Errorf("negative parallelism: got %d, want NumCPU", got)
	}
	if got := Workers(4, 0); got != 1 {
		t.Errorf("no tasks: got %d, want 1", got)
	}
}

// TestEachRunsEveryIndexOnce covers the sequential pool (p = 1), a pool
// smaller than the task count, and a pool request larger than it.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	const n = 37
	for _, p := range []int{1, 3, n + 5} {
		var counts [n]atomic.Int32
		Each(p, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("p=%d: index %d ran %d times, want 1", p, i, c)
			}
		}
	}
}

// TestEachSequentialOrder: one worker runs the indexes in order, on the
// caller's goroutine (so fn may touch unsynchronized caller state).
func TestEachSequentialOrder(t *testing.T) {
	var order []int
	Each(1, 5, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("sequential order = %v, want 0..4", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d of 5 indexes", len(order))
	}
	Each(4, 0, func(int) { t.Fatal("fn called with n = 0") })
}
