// Package evalcache is the evaluation layer's kernel: CliffGuard's one cost
// function f(W, D) (WorkloadCost) over memoized unit costs (UnitCost), and
// the worst-case reduction over a scored set (Worst). The robust loop's
// neighborhood passes, its MoveWorkload, and the portfolio's member scoring
// all call these, so every design is judged by the same f.
//
// f(W, D) is linear in the item weights (a weighted mean of per-query
// what-if costs), so once every query of a neighborhood has been costed
// under a design fingerprint, every further workload evaluation under that
// design is a pure dot product with zero cost-model calls. Two memo types,
// both thin types over costcache.Map, hold those unit costs:
//
//   - Cache is the per-run memo, keyed by (query pointer, design
//     fingerprint) — the fastest identity inside one process-local run. Its
//     memory is bounded by two-generation eviction: after each robust-loop
//     iteration the caller calls Retain with the incumbent and candidate
//     design fingerprints.
//   - Shared is the content-keyed memo, keyed by (cost-model class, query
//     ContentHash, design fingerprint). It is both the cross-tenant memo the
//     serving layer installs beneath every tenant's runs and the cross-run
//     warm-start handoff: a finished run exports its Cache into a Shared
//     (ExportInto, Class 0) and the next run installs it as its Cache's
//     fallback (SetWarm).
//
// Stripes are selected by mixing the query identity with the design
// fingerprint, so the parallel evaluator's goroutines almost always take
// different locks. Values are pure functions of their key (the cost models
// are deterministic), which is why concurrent misses on the same key may
// compute redundantly and both store the same number.
package evalcache

import (
	"sync"
	"sync/atomic"

	"cliffguard/internal/costcache"
	"cliffguard/internal/obs"
	"cliffguard/internal/workload"
)

type cacheKey struct {
	q  *workload.Query
	fp uint64
}

// entry is one memoized outcome: a cost, or the cost model's "query not
// supported" verdict (designer.ErrUnsupported), which is as deterministic as
// a cost and equally worth memoizing. Hard errors (cancellation, cost-model
// failure) are never stored.
type entry struct {
	cost        float64
	unsupported bool
}

// pairHash stripes a (query, fingerprint) pair: a splitmix64-style mix of
// the query ID and the design fingerprint.
func pairHash(k cacheKey) uint64 {
	h := (uint64(k.q.ID) + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	h ^= k.fp
	h *= 0x94d049bb133111eb
	return h ^ h>>33
}

// Cache memoizes unit costs per (query, design-fingerprint) pair. The zero
// value is not usable; call New. A nil *Cache is a valid argument to the
// kernel (UnitCost, WorkloadCost) and means "no memo".
type Cache struct {
	m *costcache.Map[cacheKey, entry]

	// Cross-run warm start: an optional content-keyed fallback memo
	// consulted on misses, a tally of lookups it served, and a
	// per-query-pointer ContentHash memo shared by the warm path and
	// ExportInto. warm is written once by SetWarm before the cache is
	// shared; the rest are concurrency-safe.
	warm     *Shared
	warmHits atomic.Uint64
	hashes   sync.Map // *workload.Query -> uint64
}

// New returns an empty cache.
func New() *Cache { return &Cache{m: costcache.NewMap[cacheKey, entry](pairHash)} }

// Lookup returns the memoized unit cost of q under the design with
// fingerprint fp, if present. unsupported reports a memoized
// designer.ErrUnsupported verdict (cost is 0 in that case). With a warm
// memo installed (SetWarm), a miss falls back to it under the query's
// content key; a hit there is promoted into the cache and counted as a hit
// (it IS a memo hit — from the previous run's memo).
func (c *Cache) Lookup(q *workload.Query, fp uint64) (cost float64, unsupported, ok bool) {
	k := cacheKey{q, fp}
	if c.warm == nil {
		e, ok := c.m.Lookup(k)
		return e.cost, e.unsupported, ok
	}
	e, ok := c.m.Peek(k)
	if !ok {
		if wc, wu, wok := c.warm.Lookup(SharedKey{Query: c.contentHash(q), Design: fp}); wok {
			e, ok = entry{cost: wc, unsupported: wu}, true
			c.m.Store(k, e)
			c.warmHits.Add(1)
		}
	}
	c.m.Tally(k, ok)
	return e.cost, e.unsupported, ok
}

// Store memoizes the unit cost (or the unsupported verdict) for the pair.
func (c *Cache) Store(q *workload.Query, fp uint64, cost float64, unsupported bool) {
	c.m.Store(cacheKey{q, fp}, entry{cost: cost, unsupported: unsupported})
}

// Retain drops every entry whose design fingerprint is not in fps — the
// two-generation eviction bound: the robust loop calls it each iteration with
// the incumbent and candidate fingerprints, so the cache never holds unit
// costs for more designs than the loop can still revisit.
func (c *Cache) Retain(fps ...uint64) {
	keep := make(map[uint64]bool, len(fps))
	for _, fp := range fps {
		keep[fp] = true
	}
	c.m.DeleteFunc(func(k cacheKey, _ entry) bool { return !keep[k.fp] })
}

// Len returns the total number of memoized pairs (diagnostics and tests).
func (c *Cache) Len() int { return c.m.Len() }

// Stats snapshots hit/miss tallies and entry counts, per stripe and in
// aggregate, in the shape obs.Metrics.RegisterCache consumes.
func (c *Cache) Stats() obs.CacheStats { return c.m.Stats() }

// SetWarm installs warm as the cache's read-only fallback: a Lookup that
// misses the pointer-keyed memo consults warm under the key (Class 0,
// ContentHash, fingerprint), and a hit there is promoted into the memo (so
// the hash is computed at most once per pair) and tallied in WarmHits. Call
// before the cache is shared across goroutines; nil disables the fallback.
//
// Warm hits count as cache hits in Stats — they are memo hits, just served
// from the previous run's memo — which is exactly what makes a warm
// re-design's evaluation passes skip the cost model. The warm memo must come
// from a run against the same cost model: its values are served unchecked.
func (c *Cache) SetWarm(warm *Shared) { c.warm = warm }

// WarmHits returns how many lookups were served from the warm memo.
func (c *Cache) WarmHits() uint64 { return c.warmHits.Load() }

// contentHash memoizes workload.ContentHash by query pointer: the hash walks
// the full query spec, and warm lookups and exports revisit the same queries
// many times over.
func (c *Cache) contentHash(q *workload.Query) uint64 {
	if v, ok := c.hashes.Load(q); ok {
		return v.(uint64)
	}
	h := workload.ContentHash(q)
	c.hashes.Store(q, h)
	return h
}

// ExportInto copies every memoized pair into dst under its content key
// (Class 0). Entries already present are overwritten — values are pure
// functions of their key, so a duplicate export writes the identical entry.
// The run loop exports before each Retain eviction plus once at run end, so
// dst covers every design fingerprint the run ever scored, not just the two
// the final cache retains. A nil dst is a no-op.
func (c *Cache) ExportInto(dst *Shared) {
	if dst == nil {
		return
	}
	c.m.Range(func(k cacheKey, e entry) {
		dst.m.Store(SharedKey{Query: c.contentHash(k.q), Design: k.fp}, e)
	})
}
