package evalcache

import (
	"cliffguard/internal/costcache"
	"cliffguard/internal/obs"
)

// SharedKey identifies one memoized unit cost by content. Unlike the
// per-run Cache (which keys by query *pointer*), a SharedKey is valid across
// runs, sessions and tenants:
//
//   - Class is the cost-model class fingerprint (engine kind + schema, see
//     MemoCost): two tenants share entries only when their cost models are
//     interchangeable pure functions. A cost model without a class uses 0.
//   - Query is workload.ContentHash of the query — identical SQL parsed by
//     two different tenants or ingestions hashes identically even though
//     the Query pointers and IDs differ.
//   - Design is the design fingerprint (designer.Design.Fingerprint).
//
// A value is therefore valid for every (tenant, run) whose cost-model class,
// query content, and design coincide — which is what turns the second tenant
// submitting a popular workload, or the next re-design over an overlapping
// window, into a warm-cache run.
type SharedKey struct {
	Class  uint64
	Query  uint64
	Design uint64
}

// sharedHash stripes a content key: the same splitmix64-style mix as the
// per-run Cache, with the engine class folded in.
func sharedHash(k SharedKey) uint64 {
	h := (k.Query + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	h ^= k.Design
	h *= 0x94d049bb133111eb
	h ^= k.Class
	return h ^ h>>33
}

// Shared is the content-keyed unit-cost memo behind MemoCost. The serving
// layer keeps one per process beneath every tenant's runs (the cross-tenant
// memo), and an online controller hands one from each re-design to the next
// (the warm-start handoff). Like Cache it is a costcache.Map; values are
// pure functions of their key, so concurrent redundant computation is
// benign.
//
// Shared never evicts: its entry count grows with |distinct designs seen| x
// |distinct queries| for as long as the memo is kept. A nil *Shared is an
// empty memo that drops writes.
type Shared struct {
	m *costcache.Map[SharedKey, entry]
}

// NewShared returns an empty shared memo.
func NewShared() *Shared { return &Shared{m: costcache.NewMap[SharedKey, entry](sharedHash)} }

// Lookup returns the memoized unit cost for the key, if present. unsupported
// reports a memoized designer.ErrUnsupported verdict (cost is 0 then).
func (s *Shared) Lookup(k SharedKey) (cost float64, unsupported, ok bool) {
	if s == nil {
		return 0, false, false
	}
	e, ok := s.m.Lookup(k)
	return e.cost, e.unsupported, ok
}

// Store memoizes the unit cost (or the unsupported verdict) for the key.
// Hard errors must never be stored; the caller enforces that.
func (s *Shared) Store(k SharedKey, cost float64, unsupported bool) {
	if s == nil {
		return
	}
	s.m.Store(k, entry{cost: cost, unsupported: unsupported})
}

// Len returns the total number of memoized entries.
func (s *Shared) Len() int {
	if s == nil {
		return 0
	}
	return s.m.Len()
}

// Stats snapshots hit/miss tallies and entry counts in the shape
// obs.Metrics.RegisterCache consumes.
func (s *Shared) Stats() obs.CacheStats { return s.m.Stats() }
