package main

import (
	"context"

	"cliffguard/internal/designer"
	"cliffguard/internal/distance"
	"cliffguard/internal/portfolio"
	"cliffguard/internal/workload"
)

// The traced run hands the program forwarding wrappers in place of the
// designer, the evaluation cost model and the distance metric. A wrapper
// must keep every optional interface its wrapped value implements, because
// the program type-asserts them: the sampler's closed-form fast path needs
// distance.Quadratic, and the AutoAdmin/ILP portfolio members and the
// baselines need a designer that is also a CandidateProvider. Losing one
// would silently change what the traced run executes.

// tracedDesigner records one "designer.design" span per Design call.
type tracedDesigner struct {
	inner designer.Designer
	tr    *tracer
}

func (d *tracedDesigner) Name() string { return d.inner.Name() }

func (d *tracedDesigner) Design(ctx context.Context, w *workload.Workload) (*designer.Design, error) {
	ctx2, sp := d.tr.start(ctx, "designer.design")
	defer d.tr.end(ctx, sp)
	return d.inner.Design(ctx2, w)
}

// tracedProviderDesigner is a tracedDesigner over a CandidateProvider.
type tracedProviderDesigner struct {
	*tracedDesigner
	provider portfolio.CandidateProvider
}

func (d *tracedProviderDesigner) Candidates(w *workload.Workload) []designer.Structure {
	return d.provider.Candidates(w)
}

func wrapDesigner(inner designer.Designer, tr *tracer) designer.Designer {
	if tr == nil {
		return inner
	}
	td := &tracedDesigner{inner: inner, tr: tr}
	if p, ok := inner.(portfolio.CandidateProvider); ok {
		return &tracedProviderDesigner{tracedDesigner: td, provider: p}
	}
	return td
}

// tracedCost folds every Cost call into its enclosing span. The designers
// call their engine directly, so what passes through here is the robust
// loop's evaluation path (neighborhood scoring and MoveWorkload).
type tracedCost struct {
	inner designer.CostModel
	tr    *tracer
}

func (c *tracedCost) Cost(ctx context.Context, q *workload.Query, d *designer.Design) (float64, error) {
	s := c.tr.enclosing(ctx)
	if s == nil {
		return c.inner.Cost(ctx, q, d)
	}
	t := s.folds[foldCost].enter()
	v, err := c.inner.Cost(ctx, q, d)
	s.folds[foldCost].exit(t)
	return v, err
}

func wrapCost(inner designer.CostModel, tr *tracer) designer.CostModel {
	if tr == nil {
		return inner
	}
	return &tracedCost{inner: inner, tr: tr}
}

// tracedMetric folds every distance computation into the current span.
type tracedMetric struct {
	inner distance.Metric
	tr    *tracer
}

func (m *tracedMetric) Name() string { return m.inner.Name() }

func (m *tracedMetric) Distance(w1, w2 *workload.Workload) float64 {
	s := m.tr.cur.Load()
	if s == nil {
		return m.inner.Distance(w1, w2)
	}
	t := s.folds[foldDist].enter()
	v := m.inner.Distance(w1, w2)
	s.folds[foldDist].exit(t)
	return v
}

// tracedQuadratic is a tracedMetric over a distance.Quadratic.
type tracedQuadratic struct {
	*tracedMetric
	quad distance.Quadratic
}

func (m *tracedQuadratic) DistanceDisjoint(w1, w2 *workload.Workload) (float64, bool) {
	s := m.tr.cur.Load()
	if s == nil {
		return m.quad.DistanceDisjoint(w1, w2)
	}
	t := s.folds[foldDist].enter()
	v, disjoint := m.quad.DistanceDisjoint(w1, w2)
	s.folds[foldDist].exit(t)
	return v, disjoint
}

func wrapMetric(inner distance.Metric, tr *tracer) distance.Metric {
	if tr == nil {
		return inner
	}
	tm := &tracedMetric{inner: inner, tr: tr}
	if q, ok := inner.(distance.Quadratic); ok {
		return &tracedQuadratic{tracedMetric: tm, quad: q}
	}
	return tm
}
