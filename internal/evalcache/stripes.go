package evalcache

import (
	"sync"
	"sync/atomic"

	"cliffguard/internal/obs"
)

// numShards is the stripe count. Must be a power of two. 64 stripes keep the
// collision probability negligible for the worker counts CliffGuard runs
// (bounded by runtime.NumCPU()).
const numShards = 64

type shard[K comparable, V any] struct {
	mu sync.RWMutex
	m  map[K]V
	// Hit/miss tallies live outside the map lock: Lookup under heavy
	// parallel evaluation must not contend on anything but the stripe's
	// RLock, so the counters are plain atomics.
	hits   atomic.Uint64
	misses atomic.Uint64
}

// stripedMap is a 64-way lock-striped map with per-stripe hit/miss tallies,
// the storage under both Cache and Shared. The stripe of a key is hash(key)
// mod 64, so each memo keeps its own stripe function (and with it its
// per-stripe metric series). The zero value is not usable; call
// newStripedMap.
type stripedMap[K comparable, V any] struct {
	hash   func(K) uint64
	shards [numShards]shard[K, V]
}

// newStripedMap returns an empty map striped by hash.
func newStripedMap[K comparable, V any](hash func(K) uint64) *stripedMap[K, V] {
	m := &stripedMap[K, V]{hash: hash}
	for i := range m.shards {
		m.shards[i].m = make(map[K]V)
	}
	return m
}

func (m *stripedMap[K, V]) shardFor(k K) *shard[K, V] {
	return &m.shards[m.hash(k)&(numShards-1)]
}

// Lookup returns the value for k, if present, and tallies the hit or miss.
func (m *stripedMap[K, V]) Lookup(k K) (V, bool) {
	s := m.shardFor(k)
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	s.tally(ok)
	return v, ok
}

func (s *shard[K, V]) tally(hit bool) {
	if hit {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
}

// Store sets the value for k.
func (m *stripedMap[K, V]) Store(k K, v V) {
	s := m.shardFor(k)
	s.mu.Lock()
	s.m[k] = v
	s.mu.Unlock()
}

// DeleteFunc removes every entry for which del returns true. del runs under
// the stripe's write lock and must not call back into m.
func (m *stripedMap[K, V]) DeleteFunc(del func(K, V) bool) {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		for k, v := range s.m {
			if del(k, v) {
				delete(s.m, k)
			}
		}
		s.mu.Unlock()
	}
}

// Len returns the total number of entries.
func (m *stripedMap[K, V]) Len() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Stats snapshots hit/miss tallies and entry counts, per stripe and in
// aggregate, in the shape obs.Metrics.RegisterCache consumes. The snapshot
// is not atomic across stripes (each is read independently), which is fine
// for monitoring.
func (m *stripedMap[K, V]) Stats() obs.CacheStats {
	var out obs.CacheStats
	out.Shards = make([]obs.CacheShardStats, numShards)
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		entries := len(s.m)
		s.mu.RUnlock()
		sh := obs.CacheShardStats{
			Hits:    s.hits.Load(),
			Misses:  s.misses.Load(),
			Entries: entries,
		}
		out.Shards[i] = sh
		out.Hits += sh.Hits
		out.Misses += sh.Misses
		out.Entries += sh.Entries
	}
	return out
}
