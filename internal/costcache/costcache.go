// Package costcache provides the repo's one lock-striped memo, Map, and the
// per-(query, access-path) what-if cost cache built on it. All three engine
// simulators memoize path costs through Cache; the evaluation layer's two
// unit-cost memos — the run-local evalcache.Cache and the content-keyed
// evalcache.Shared behind evalcache.MemoCost — are thin types over Map too. The striping exists so that CliffGuard's parallel neighborhood
// evaluation — many goroutines costing overlapping query sets — does not
// serialize on a single cache mutex.
//
// Values are pure functions of their key, which is why GetOrCompute
// tolerates duplicate computation under a miss race: both writers store the
// same number.
package costcache

import (
	"sync"
	"sync/atomic"

	"cliffguard/internal/obs"
	"cliffguard/internal/workload"
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

// Map is a 64-way lock-striped map with per-stripe hit/miss tallies. The
// stripe of a key is hash(key) mod 64, so each memo keeps its own stripe
// function (and with it its per-stripe metric series). The zero value is
// not usable; call NewMap.
type Map[K comparable, V any] struct {
	hash   func(K) uint64
	shards [numShards]shard[K, V]
}

// NewMap returns an empty map striped by hash.
func NewMap[K comparable, V any](hash func(K) uint64) *Map[K, V] {
	m := &Map[K, V]{hash: hash}
	for i := range m.shards {
		m.shards[i].m = make(map[K]V)
	}
	return m
}

func (m *Map[K, V]) shardFor(k K) *shard[K, V] {
	return &m.shards[m.hash(k)&(numShards-1)]
}

// Lookup returns the value for k, if present, and tallies the hit or miss.
func (m *Map[K, V]) Lookup(k K) (V, bool) {
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
func (m *Map[K, V]) Store(k K, v V) {
	s := m.shardFor(k)
	s.mu.Lock()
	s.m[k] = v
	s.mu.Unlock()
}

// DeleteFunc removes every entry for which del returns true. del runs under
// the stripe's write lock and must not call back into m.
func (m *Map[K, V]) DeleteFunc(del func(K, V) bool) {
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
func (m *Map[K, V]) Len() int {
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
func (m *Map[K, V]) Stats() obs.CacheStats {
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

type cacheKey struct {
	q    *workload.Query
	path string
}

// pathHash stripes a (query, path) pair: an FNV-style mix of the query ID
// and the path bytes.
func pathHash(k cacheKey) uint64 {
	h := uint64(k.q.ID)*0x9e3779b97f4a7c15 + 0xcbf29ce484222325
	for i := 0; i < len(k.path); i++ {
		h = (h ^ uint64(k.path[i])) * 0x100000001b3
	}
	return h ^ h>>33
}

// Cache memoizes float64 costs per (query, path) pair. The zero value is not
// usable; call New.
type Cache struct {
	m *Map[cacheKey, float64]
}

// New returns an empty cache.
func New() *Cache { return &Cache{m: NewMap[cacheKey, float64](pathHash)} }

// Lookup returns the memoized cost for the pair, if present.
func (c *Cache) Lookup(q *workload.Query, path string) (float64, bool) {
	return c.m.Lookup(cacheKey{q, path})
}

// Store memoizes the cost for the pair.
func (c *Cache) Store(q *workload.Query, path string, cost float64) {
	c.m.Store(cacheKey{q, path}, cost)
}

// GetOrCompute returns the memoized cost for the pair, invoking compute and
// storing its result on a miss. compute runs outside any lock: concurrent
// misses on the same pair may compute redundantly, but the cost models are
// pure, so every writer stores the same value.
func (c *Cache) GetOrCompute(q *workload.Query, path string, compute func() float64) float64 {
	if v, ok := c.Lookup(q, path); ok {
		return v
	}
	v := compute()
	c.Store(q, path, v)
	return v
}

// Len returns the total number of memoized pairs (diagnostics and tests).
func (c *Cache) Len() int { return c.m.Len() }

// Stats snapshots the cache's hit/miss tallies and entry counts.
func (c *Cache) Stats() obs.CacheStats { return c.m.Stats() }
