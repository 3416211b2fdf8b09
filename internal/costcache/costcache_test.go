package costcache

import (
	"sync"
	"sync/atomic"
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
	if _, ok := c.Lookup(qs[0], "p"); ok {
		t.Fatal("empty cache should miss")
	}
	c.Store(qs[0], "p", 1.5)
	if v, ok := c.Lookup(qs[0], "p"); !ok || v != 1.5 {
		t.Fatalf("got (%v, %v), want (1.5, true)", v, ok)
	}
	// Same query, different path; same path, different query.
	if _, ok := c.Lookup(qs[0], "other"); ok {
		t.Fatal("different path should miss")
	}
	if _, ok := c.Lookup(qs[1], "p"); ok {
		t.Fatal("different query should miss")
	}
	c.Store(qs[0], "p", 2.5)
	if v, _ := c.Lookup(qs[0], "p"); v != 2.5 {
		t.Fatalf("overwrite: got %v, want 2.5", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestGetOrCompute(t *testing.T) {
	c := New()
	qs := testQueries(1)
	calls := 0
	compute := func() float64 { calls++; return 7 }
	if v := c.GetOrCompute(qs[0], "p", compute); v != 7 {
		t.Fatalf("got %v, want 7", v)
	}
	if v := c.GetOrCompute(qs[0], "p", compute); v != 7 {
		t.Fatalf("cached: got %v, want 7", v)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
}

// TestConcurrentHammer races 16 goroutines over a shared key set, mixing
// hits, misses and redundant computes. Run under -race; the assertion is that
// every returned value matches the pure compute function.
func TestConcurrentHammer(t *testing.T) {
	c := New()
	qs := testQueries(32)
	paths := []string{"", "p1", "p2", "p3"}
	value := func(q *workload.Query, path string) float64 {
		return float64(q.ID)*10 + float64(len(path))
	}
	var computes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				// (query, path) sweeps the full cross product per goroutine,
				// phase-shifted by g so goroutines collide on the same keys.
				q := qs[(i+g)%len(qs)]
				path := paths[(i/len(qs))%len(paths)]
				got := c.GetOrCompute(q, path, func() float64 {
					computes.Add(1)
					return value(q, path)
				})
				if want := value(q, path); got != want {
					t.Errorf("GetOrCompute(%d, %q) = %v, want %v", q.ID, path, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n != len(qs)*len(paths) {
		t.Fatalf("Len = %d, want %d", n, len(qs)*len(paths))
	}
	// Duplicate computes under miss races are allowed but must be rare
	// relative to total accesses (16*500); a blowup means Lookup is broken.
	if n := computes.Load(); n > int64(len(qs)*len(paths)*16) {
		t.Fatalf("%d computes for %d keys", n, len(qs)*len(paths))
	}
}

func TestShardSpread(t *testing.T) {
	// The shard hash must actually spread keys; all-in-one-stripe would
	// silently serialize parallel evaluation again.
	used := make(map[uint64]bool)
	for _, q := range testQueries(256) {
		for _, path := range []string{"", "a", "bb"} {
			used[pathHash(cacheKey{q, path})&(numShards-1)] = true
		}
	}
	if len(used) < numShards/2 {
		t.Fatalf("only %d of %d shards used", len(used), numShards)
	}
}

// TestMapStripeTallies: Lookup tallies each hit and miss against the key's
// own stripe, Peek tallies nothing, Tally counts without a lookup, and
// Clear drops the entries but keeps the tallies.
func TestMapStripeTallies(t *testing.T) {
	m := NewMap[uint64, string](func(k uint64) uint64 { return k })
	m.Store(3, "three")
	if v, ok := m.Lookup(3); !ok || v != "three" {
		t.Fatalf("Lookup(3) = (%q, %v)", v, ok)
	}
	m.Lookup(3 + numShards) // same stripe as 3, absent
	m.Lookup(5)
	if _, ok := m.Peek(3); !ok {
		t.Fatal("Peek(3) missed")
	}
	m.Tally(7, true)
	st := m.Stats()
	if len(st.Shards) != numShards {
		t.Fatalf("%d stripes reported, want %d", len(st.Shards), numShards)
	}
	want := map[int][2]uint64{3: {1, 1}, 5: {0, 1}, 7: {1, 0}}
	for i, sh := range st.Shards {
		w := want[i]
		if sh.Hits != w[0] || sh.Misses != w[1] {
			t.Errorf("stripe %d: hits %d misses %d, want %d/%d", i, sh.Hits, sh.Misses, w[0], w[1])
		}
	}
	if st.Hits != 2 || st.Misses != 2 || st.Entries != 1 || st.Shards[3].Entries != 1 {
		t.Fatalf("aggregate %+v", st)
	}

	m.Store(9, "nine")
	m.DeleteFunc(func(k uint64, _ string) bool { return k == 3 })
	seen := 0
	m.Range(func(k uint64, v string) {
		if k != 9 || v != "nine" {
			t.Fatalf("Range yielded (%d, %q) after DeleteFunc", k, v)
		}
		seen++
	})
	if seen != 1 || m.Len() != 1 {
		t.Fatalf("Range saw %d entries, Len %d, want 1", seen, m.Len())
	}
	m.Clear()
	if m.Len() != 0 {
		t.Fatalf("Len after Clear = %d", m.Len())
	}
	if after := m.Stats(); after.Hits != st.Hits || after.Misses != st.Misses {
		t.Fatalf("Clear reset the tallies: %d/%d, want %d/%d", after.Hits, after.Misses, st.Hits, st.Misses)
	}
}
