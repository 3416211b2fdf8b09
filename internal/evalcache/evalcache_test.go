package evalcache

import (
	"sync"
	"testing"
	"time"

	"cliffguard/internal/workload"
)

func testQueries(n int) []*workload.Query {
	out := make([]*workload.Query, n)
	for i := range out {
		out[i] = workload.FromSpec(workload.NextID(), time.Time{},
			&workload.Spec{Table: "f", SelectCols: []int{i % 7}})
	}
	return out
}

func TestLookupStore(t *testing.T) {
	c := New()
	qs := testQueries(3)
	if _, _, ok := c.Lookup(qs[0], 1); ok {
		t.Fatal("empty cache should miss")
	}
	c.Store(qs[0], 1, 1.5, false)
	if v, uns, ok := c.Lookup(qs[0], 1); !ok || uns || v != 1.5 {
		t.Fatalf("got (%v, %v, %v), want (1.5, false, true)", v, uns, ok)
	}
	// Same query, different fingerprint; same fingerprint, different query.
	if _, _, ok := c.Lookup(qs[0], 2); ok {
		t.Fatal("different fingerprint should miss")
	}
	if _, _, ok := c.Lookup(qs[1], 1); ok {
		t.Fatal("different query should miss")
	}
	c.Store(qs[0], 1, 2.5, false)
	if v, _, _ := c.Lookup(qs[0], 1); v != 2.5 {
		t.Fatalf("overwrite: got %v, want 2.5", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestUnsupportedMemoized(t *testing.T) {
	c := New()
	qs := testQueries(1)
	c.Store(qs[0], 7, 0, true)
	v, uns, ok := c.Lookup(qs[0], 7)
	if !ok || !uns || v != 0 {
		t.Fatalf("got (%v, %v, %v), want (0, true, true)", v, uns, ok)
	}
}

func TestRetain(t *testing.T) {
	c := New()
	qs := testQueries(8)
	for _, q := range qs {
		for fp := uint64(1); fp <= 3; fp++ {
			c.Store(q, fp, float64(q.ID)+float64(fp), false)
		}
	}
	if c.Len() != len(qs)*3 {
		t.Fatalf("Len = %d, want %d", c.Len(), len(qs)*3)
	}
	c.Retain(1, 3)
	if c.Len() != len(qs)*2 {
		t.Fatalf("after Retain(1,3): Len = %d, want %d", c.Len(), len(qs)*2)
	}
	for _, q := range qs {
		if _, _, ok := c.Lookup(q, 2); ok {
			t.Fatal("evicted fingerprint still present")
		}
		if v, _, ok := c.Lookup(q, 1); !ok || v != float64(q.ID)+1 {
			t.Fatalf("retained entry lost or corrupted: (%v, %v)", v, ok)
		}
	}
	c.Retain()
	if c.Len() != 0 {
		t.Fatalf("Retain() should empty the cache, Len = %d", c.Len())
	}
}

// TestConcurrentHammer races 16 goroutines over a shared key set, mixing
// hits, misses, overwrites, stats scrapes, and periodic full-retain sweeps.
// Run under -race; the assertion is that every present value matches the
// pure function of its key.
func TestConcurrentHammer(t *testing.T) {
	c := New()
	qs := testQueries(32)
	fps := []uint64{1, 2, 3, 4}
	value := func(q *workload.Query, fp uint64) float64 {
		return float64(q.ID)*10 + float64(fp)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				// (query, fp) sweeps the full cross product per goroutine,
				// phase-shifted by g so goroutines collide on the same keys.
				q := qs[(i+g)%len(qs)]
				fp := fps[(i/len(qs))%len(fps)]
				got, uns, ok := c.Lookup(q, fp)
				if !ok {
					c.Store(q, fp, value(q, fp), false)
					continue
				}
				if uns || got != value(q, fp) {
					t.Errorf("Lookup(%d, %d) = (%v, %v), want (%v, false)",
						q.ID, fp, got, uns, value(q, fp))
					return
				}
				if i%97 == 0 {
					// Retain keeps every live fingerprint: a no-op eviction
					// that still exercises the write locks against readers.
					c.Retain(fps...)
					_ = c.Stats()
					_ = c.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n != len(qs)*len(fps) {
		t.Fatalf("Len = %d, want %d", n, len(qs)*len(fps))
	}
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("hammer recorded hits=%d misses=%d, want both > 0", st.Hits, st.Misses)
	}
	if st.Entries != len(qs)*len(fps) {
		t.Fatalf("Stats entries = %d, want %d", st.Entries, len(qs)*len(fps))
	}
}

func TestShardSpread(t *testing.T) {
	// The shard hash must actually spread keys; all-in-one-stripe would
	// silently serialize parallel evaluation again.
	stripes := uint64(len(New().Stats().Shards))
	used := make(map[uint64]bool)
	for _, q := range testQueries(256) {
		for _, fp := range []uint64{1, 1 << 20, 0xdeadbeef} {
			used[pairHash(cacheKey{q, fp})%stripes] = true
		}
	}
	if uint64(len(used)) < stripes/2 {
		t.Fatalf("only %d of %d shards used", len(used), stripes)
	}
}
