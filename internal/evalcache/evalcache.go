// Package evalcache is the evaluation layer's kernel: CliffGuard's one cost
// function f(W, D) (WorkloadCost) over memoized unit costs (UnitCost), and
// the worst-case reduction over a scored set (Worst). The robust loop's
// neighborhood passes, its MoveWorkload, and the portfolio's member scoring
// all call these, so every design is judged by the same f.
//
// f(W, D) is linear in the item weights (a weighted mean of per-query
// what-if costs), so once every query of a neighborhood has been costed
// under a design fingerprint, every further workload evaluation under that
// design is a pure dot product with zero cost-model calls. Unit costs live
// in two memos, both thin types over costcache.Map:
//
//   - Cache is the run's own memo, keyed by (query pointer, design
//     fingerprint) — the fastest identity inside one process-local run. Its
//     memory is bounded by two-generation eviction: after each robust-loop
//     iteration the caller calls Retain with the incumbent and candidate
//     design fingerprints. It knows nothing beyond its run.
//   - Shared is the content-keyed memo, keyed by (cost-model class, query
//     ContentHash, design fingerprint), valid across runs and tenants. A run
//     reaches it only through the cost model: MemoCost (Over) wraps a cost
//     model with a Shared to read and a Shared to write, which is all the
//     cross-tenant memo and the online warm-start handoff are.
//
// Stripes are selected by mixing the query identity with the design
// fingerprint, so the parallel evaluator's goroutines almost always take
// different locks. Values are pure functions of their key (the cost models
// are deterministic), which is why concurrent misses on the same key may
// compute redundantly and both store the same number.
package evalcache

import (
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
}

// New returns an empty cache.
func New() *Cache { return &Cache{m: costcache.NewMap[cacheKey, entry](pairHash)} }

// Lookup returns the memoized unit cost of q under the design with
// fingerprint fp, if present. unsupported reports a memoized
// designer.ErrUnsupported verdict (cost is 0 in that case).
func (c *Cache) Lookup(q *workload.Query, fp uint64) (cost float64, unsupported, ok bool) {
	e, ok := c.m.Lookup(cacheKey{q, fp})
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
