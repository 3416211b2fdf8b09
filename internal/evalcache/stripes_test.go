package evalcache

import "testing"

// TestMapStripeTallies: Lookup tallies each hit and miss against the key's
// own stripe, Store tallies nothing, and DeleteFunc drops entries but keeps
// the tallies.
func TestMapStripeTallies(t *testing.T) {
	m := newStripedMap[uint64, string](func(k uint64) uint64 { return k })
	m.Store(3, "three")
	if v, ok := m.Lookup(3); !ok || v != "three" {
		t.Fatalf("Lookup(3) = (%q, %v)", v, ok)
	}
	m.Lookup(3 + numShards) // same stripe as 3, absent
	m.Lookup(5)
	m.Store(7, "seven")
	m.Lookup(7)
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
	if st.Hits != 2 || st.Misses != 2 || st.Entries != 2 || st.Shards[3].Entries != 1 {
		t.Fatalf("aggregate %+v", st)
	}

	m.DeleteFunc(func(k uint64, _ string) bool { return k == 3 })
	if _, ok := m.Lookup(7); !ok || m.Len() != 1 {
		t.Fatalf("DeleteFunc dropped the wrong entries: Len %d", m.Len())
	}
	// The tallies survive the deletion: one more hit (the Lookup(7) above).
	if after := m.Stats(); after.Hits != st.Hits+1 || after.Misses != st.Misses {
		t.Fatalf("DeleteFunc reset the tallies: %d/%d, want %d/%d", after.Hits, after.Misses, st.Hits+1, st.Misses)
	}
}
