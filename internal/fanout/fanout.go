// Package fanout is the one index-aligned worker pool. Every parallel stage
// of a run — sampling the Γ-neighborhood, scoring it, racing portfolio
// members and scoring their designs — is a loop over n independent tasks
// whose results land in an index-aligned slice and are reduced in index
// order afterwards. Each runs that loop here, so they share one reading of
// Parallelism and one determinism argument: a task never observes another
// task's result, so the output is identical at any worker count.
package fanout

import (
	"runtime"
	"sync"
)

// Workers resolves a Parallelism setting to a pool size for n tasks:
// non-positive means runtime.NumCPU(), the pool never exceeds the task
// count, and it is at least 1.
func Workers(parallelism, n int) int {
	p := parallelism
	if p <= 0 {
		p = runtime.NumCPU()
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Each calls fn(i) once for every i in [0, n) on Workers(parallelism, n)
// goroutines and returns when all calls have returned. With one worker the
// calls run in index order on the caller's goroutine. fn must be safe for
// concurrent calls with distinct indexes.
func Each(parallelism, n int, fn func(i int)) {
	workers := Workers(parallelism, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
