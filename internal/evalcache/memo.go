package evalcache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"cliffguard/internal/designer"
	"cliffguard/internal/workload"
)

// MemoCost is a cost model that answers from content-keyed memos before
// asking the model it wraps. It is the one place a cross-run or cross-tenant
// memo meets a run: the serving layer wraps every tenant's engine with
// Over(eng, shared, shared), and an online re-design wraps its cost model
// with Over(cost, handoff, next), so the robust loop itself only ever sees
// a cost model.
//
// Keys are SharedKey{Class, ContentHash(q), d.Fingerprint()}; Class is the
// wrapped model's Class() when it has that method (the engines do), else 0.
// A hit in read returns the memoized outcome and, when write is a different
// memo, copies it into write. A miss calls the wrapped model and stores the
// cost, or the designer.ErrUnsupported verdict, into write; hard errors are
// returned but never stored. write is never consulted, so a run over
// Over(cm, nil, w) makes exactly the model calls a run over cm makes.
// Memoized values are the exact model outputs, so results are bit-identical
// with or without the wrapper — provided read was filled by the same pure
// cost function.
//
// A nil read or write is inert. MemoCost is safe for concurrent use.
type MemoCost struct {
	inner       designer.CostModel
	read, write *Shared
	class       uint64

	hits, misses atomic.Uint64
	// hashes memoizes workload.ContentHash by query pointer: the hash walks
	// the full query spec, and a run costs the same queries many times.
	hashes sync.Map // *workload.Query -> uint64
}

// Over wraps cm with the content-keyed memos read and write (see MemoCost).
func Over(cm designer.CostModel, read, write *Shared) *MemoCost {
	m := &MemoCost{inner: cm, read: read, write: write}
	if c, ok := cm.(interface{ Class() uint64 }); ok {
		m.class = c.Class()
	}
	return m
}

// Cost implements designer.CostModel.
func (m *MemoCost) Cost(ctx context.Context, q *workload.Query, d *designer.Design) (float64, error) {
	key := SharedKey{Class: m.class, Query: m.contentHash(q), Design: d.Fingerprint()}
	if cost, unsupported, ok := m.read.Lookup(key); ok {
		m.hits.Add(1)
		if m.write != m.read {
			m.write.Store(key, cost, unsupported)
		}
		if unsupported {
			return 0, designer.ErrUnsupported
		}
		return cost, nil
	}
	m.misses.Add(1)
	cost, err := m.inner.Cost(ctx, q, d)
	switch {
	case err == nil:
		m.write.Store(key, cost, false)
	case errors.Is(err, designer.ErrUnsupported):
		m.write.Store(key, 0, true)
	}
	return cost, err
}

// Hits counts calls answered from read.
func (m *MemoCost) Hits() uint64 { return m.hits.Load() }

// Misses counts calls that fell through to the wrapped model.
func (m *MemoCost) Misses() uint64 { return m.misses.Load() }

func (m *MemoCost) contentHash(q *workload.Query) uint64 {
	if v, ok := m.hashes.Load(q); ok {
		return v.(uint64)
	}
	h := workload.ContentHash(q)
	m.hashes.Store(q, h)
	return h
}
