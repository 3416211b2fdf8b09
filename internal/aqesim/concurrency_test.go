package aqesim

import (
	"context"
	"sync"
	"testing"

	"cliffguard/internal/designer"
	"cliffguard/internal/workload"
)

// TestCostConcurrentAccess hammers one cost model from 16 goroutines (run
// under -race), mirroring the vertsim/rowsim tests: shared
// cost models must be safe under CliffGuard's parallel neighborhood
// evaluation and agree with sequential results.
func TestCostConcurrentAccess(t *testing.T) {
	s := testSchema()
	db := Open(s)
	sm, err := NewSample(s, "f", []int{0}, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	design := designer.NewDesign(sm)

	queries := make([]*workload.Query, 16)
	for i := range queries {
		queries[i] = aggQuery(i%3, (i+1)%5)
	}
	want := make([]float64, len(queries))
	for i, query := range queries {
		c, err := db.Cost(context.Background(), query, design)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = c
	}

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (i + g) % len(queries)
				c, err := db.Cost(context.Background(), queries[k], design)
				if err != nil {
					t.Error(err)
					return
				}
				if c != want[k] {
					t.Errorf("concurrent cost %v, want %v", c, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
