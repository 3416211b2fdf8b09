package evalcache

import (
	"sync"
	"sync/atomic"

	"cliffguard/internal/obs"
)

// SharedKey identifies one memoized unit cost by content. Unlike the
// per-run Cache (which keys by query *pointer*), a SharedKey is valid across
// runs, sessions and tenants:
//
//   - Class is the engine's cost-model class fingerprint (engine kind +
//     schema): two tenants share entries only when their cost models are
//     interchangeable pure functions. The warm-start handoff between runs of
//     one cost model uses Class 0.
//   - Query is workload.ContentHash of the query — identical SQL parsed by
//     two different tenants or ingestions hashes identically even though
//     the Query pointers and IDs differ.
//   - Design is the design fingerprint (designer.Design.Fingerprint).
//
// A value is therefore valid for every (tenant, run) whose engine class,
// query content, and design coincide — which is what turns the second tenant
// submitting a popular workload, or the next re-design over an overlapping
// window, into a warm-cache run.
type SharedKey struct {
	Class  uint64
	Query  uint64
	Design uint64
}

type sharedShard struct {
	mu     sync.RWMutex
	m      map[SharedKey]entry
	hits   atomic.Uint64
	misses atomic.Uint64
}

// Shared is the content-keyed unit-cost memo. It serves two roles with one
// type: the serving layer installs one per process beneath every tenant's
// runs (the cross-tenant memo), and a finished run exports its per-run Cache
// into one for the next run to import (the warm-start handoff, see
// Cache.ExportInto and Cache.SetWarm). It uses the same 64-way lock striping
// as Cache; values are pure functions of their key, so concurrent redundant
// computation is benign.
//
// There is no eviction short of Reset: the entry count is bounded by
// |distinct designs seen| x |distinct queries|. A nil *Shared is an empty,
// read-only memo: Len and Lookup work on it.
type Shared struct {
	shards [numShards]sharedShard
}

// NewShared returns an empty shared memo.
func NewShared() *Shared {
	s := &Shared{}
	for i := range s.shards {
		s.shards[i].m = make(map[SharedKey]entry)
	}
	return s
}

func (s *Shared) shardFor(k SharedKey) *sharedShard {
	h := (k.Query + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	h ^= k.Design
	h *= 0x94d049bb133111eb
	h ^= k.Class
	h ^= h >> 33
	return &s.shards[h&(numShards-1)]
}

// Lookup returns the memoized unit cost for the key, if present. unsupported
// reports a memoized designer.ErrUnsupported verdict (cost is 0 then).
func (s *Shared) Lookup(k SharedKey) (cost float64, unsupported, ok bool) {
	if s == nil {
		return 0, false, false
	}
	sh := s.shardFor(k)
	sh.mu.RLock()
	e, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		sh.hits.Add(1)
	} else {
		sh.misses.Add(1)
	}
	return e.cost, e.unsupported, ok
}

// Store memoizes the unit cost (or the unsupported verdict) for the key.
// Hard errors must never be stored; the caller enforces that.
func (s *Shared) Store(k SharedKey, cost float64, unsupported bool) {
	sh := s.shardFor(k)
	sh.mu.Lock()
	sh.m[k] = entry{cost: cost, unsupported: unsupported}
	sh.mu.Unlock()
}

// Reset drops every entry (hit/miss tallies are kept; they are counters).
func (s *Shared) Reset() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.m = make(map[SharedKey]entry)
		sh.mu.Unlock()
	}
}

// Len returns the total number of memoized entries.
func (s *Shared) Len() int {
	if s == nil {
		return 0
	}
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Stats snapshots hit/miss tallies and entry counts in the shape
// obs.Metrics.RegisterCache consumes.
func (s *Shared) Stats() obs.CacheStats {
	var out obs.CacheStats
	out.Shards = make([]obs.CacheShardStats, numShards)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		entries := len(sh.m)
		sh.mu.RUnlock()
		st := obs.CacheShardStats{
			Hits:    sh.hits.Load(),
			Misses:  sh.misses.Load(),
			Entries: entries,
		}
		out.Shards[i] = st
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Entries += st.Entries
	}
	return out
}
