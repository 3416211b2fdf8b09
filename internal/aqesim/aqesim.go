// Package aqesim is an approximate-query-engine simulator: the third
// physical-design problem of the paper's taxonomy (Section 2 lists
// "different types of samples (e.g., stratified on different columns)" as
// the design objects of approximate databases such as BlinkDB, and the
// conclusion proposes extending CliffGuard to "other types of design
// problems"). Its design structures are stratified samples; a query runs on
// the smallest sample whose stratification covers the query's grouping and
// filtering columns, falling back to the full table otherwise.
//
// The engine exists to demonstrate that CliffGuard's loop is genuinely
// black-box: nothing in internal/core changes when the structure type is a
// sample instead of a projection or an index.
package aqesim

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"cliffguard/internal/designer"
	"cliffguard/internal/obs"
	"cliffguard/internal/schema"
	"cliffguard/internal/workload"
)

// Cost-model constants (milliseconds-producing units).
const (
	scanBytesPerMs  = 50_000.0
	aggRowsPerMs    = 8_000.0
	fixedOverheadMs = 15.0
	// minGroupRows is the per-stratum row floor that keeps group estimates
	// statistically usable; it bounds how small a stratified sample can be.
	minGroupRows = 100
)

// Sample is a stratified sample of a table: SampleFraction of the rows,
// stratified on Strata so that groups over (a subset of) those columns keep
// proportional representation. It implements designer.Structure.
type Sample struct {
	Table    string
	Strata   []int // sorted stratification columns
	Fraction float64

	key    string
	size   int64
	strata workload.ColSet // Strata as a set
}

// NewSample builds a stratified sample over table. Fraction must lie in
// (0, 1); strata columns must belong to the table. A stratified sample needs
// minGroupRows per stratum, so the fraction is raised if required.
func NewSample(s *schema.Schema, table string, strata []int, fraction float64) (*Sample, error) {
	t, ok := s.Table(table)
	if !ok {
		return nil, fmt.Errorf("aqesim: unknown table %q", table)
	}
	if fraction <= 0 || fraction >= 1 {
		return nil, fmt.Errorf("aqesim: sample fraction %g outside (0,1)", fraction)
	}
	var set workload.ColSet
	var cols []int
	groups := int64(1)
	for _, c := range strata {
		if !s.ValidID(c) {
			return nil, fmt.Errorf("aqesim: invalid column ID %d", c)
		}
		if s.Column(c).Table != table {
			return nil, fmt.Errorf("aqesim: column %s not in table %q", s.Column(c).Qualified(), table)
		}
		if set.Has(c) {
			continue
		}
		set.Add(c)
		cols = append(cols, c)
		if card := s.Column(c).Cardinality; card > 0 && groups < t.Rows {
			groups *= card
		}
	}
	if groups > t.Rows {
		groups = t.Rows
	}
	sort.Ints(cols)
	// Raise the fraction until every stratum keeps minGroupRows on average.
	if need := float64(groups*minGroupRows) / float64(t.Rows); fraction < need {
		fraction = math.Min(need, 0.5)
	}
	sm := &Sample{Table: table, Strata: cols, Fraction: fraction, strata: set}
	sm.size = int64(float64(t.Rows*t.RowWidth()) * fraction)
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprintf("%d", c)
	}
	sm.key = fmt.Sprintf("sample:%s:strata=%s:f=%.4f", table, strings.Join(parts, ","), fraction)
	return sm, nil
}

// Key implements designer.Structure.
func (s *Sample) Key() string { return s.key }

// SizeBytes implements designer.Structure.
func (s *Sample) SizeBytes() int64 { return s.size }

// Describe implements designer.Structure.
func (s *Sample) Describe() string {
	parts := make([]string, len(s.Strata))
	for i, c := range s.Strata {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return fmt.Sprintf("SAMPLE %s STRATIFIED ON (%s) fraction=%.3f size=%dMB",
		s.Table, strings.Join(parts, ","), s.Fraction, s.size/(1<<20))
}

// StrataSet returns the stratification columns as a set, precomputed by
// NewSample. The set is shared: callers must not mutate it.
func (s *Sample) StrataSet() workload.ColSet { return s.strata }

// DB is the approximate engine's cost model. It implements
// designer.CostModel. The cost path reads only immutable state, so
// CliffGuard's parallel neighborhood evaluation may share one DB.
type DB struct {
	Schema *schema.Schema

	met *obs.Metrics // nil disables instrumentation
}

// Open returns a cost-model-only approximate engine over the schema.
func Open(s *schema.Schema) *DB {
	return &DB{Schema: s}
}

// Instrument attaches a metrics registry that counts Cost invocations. Call
// it before sharing the DB across goroutines.
func (db *DB) Instrument(m *obs.Metrics) { db.met = m }

// Cost implements designer.CostModel: an aggregate query answerable from a
// stratified sample scans only the sample; everything else scans the table.
// A cancelled ctx aborts with ctx.Err() before any estimation work.
func (db *DB) Cost(ctx context.Context, q *workload.Query, d *designer.Design) (float64, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	if db.met != nil {
		db.met.CostModelCalls.Inc()
	}
	if err := db.check(q); err != nil {
		return 0, err
	}
	qt := db.terms(q)
	best := qt.pathCost(1.0)
	if d != nil {
		for _, s := range d.Structures {
			if c, ok := qt.via(s); ok && c < best {
				best = c
			}
		}
	}
	return best, nil
}

// Paths implements designer.PathCoster: the full scan's cost (exactly
// Cost(ctx, q, nil), one counted call) and q's cost through one sample
// alone, false when the sample cannot answer q. The per-query terms are
// computed here, once for every cell via costs.
func (db *DB) Paths(ctx context.Context, q *workload.Query) (float64, func(designer.Structure) (float64, bool), error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
	}
	if db.met != nil {
		db.met.CostModelCalls.Inc()
	}
	if err := db.check(q); err != nil {
		return 0, nil, err
	}
	qt := db.terms(q)
	return qt.pathCost(1.0), qt.via, nil
}

// answerable reports whether the sample can answer the query with bounded
// error: aggregate queries only, with every grouping and filtering column
// inside the stratification set (otherwise strata do not control the
// estimator's variance for that query).
func answerable(q *workload.Query, sm *Sample) bool {
	spec := q.Spec
	if len(spec.Aggs) == 0 {
		return false // point/detail queries need exact rows
	}
	strata := sm.StrataSet()
	for _, c := range spec.GroupBy {
		if !strata.Has(c) {
			return false
		}
	}
	for _, p := range spec.Preds {
		if !strata.Has(p.Col) {
			return false
		}
	}
	return true
}

// check validates that the query is costable: a spec over a known table
// whose referenced columns all belong to it. The common case is one set
// containment against the table's column set; only a query that fails it
// walks its columns to name the first offender.
func (db *DB) check(q *workload.Query) error {
	if q == nil || q.Spec == nil {
		return fmt.Errorf("aqesim: query without spec: %w", designer.ErrUnsupported)
	}
	t, ok := db.Schema.Table(q.Spec.Table)
	if !ok {
		return fmt.Errorf("aqesim: unknown table %q: %w", q.Spec.Table, designer.ErrUnsupported)
	}
	if q.ColumnsWithin(t.ColumnSet()) {
		return nil
	}
	var err error
	q.EachColumn(func(c int) bool {
		if !db.Schema.ValidID(c) || db.Schema.Column(c).Table != q.Spec.Table {
			err = fmt.Errorf("aqesim: column %d outside anchor %q: %w", c, q.Spec.Table, designer.ErrUnsupported)
		}
		return err == nil
	})
	return err
}

// queryTerms are the path-independent parts of q's path costs, computed
// once per query (q must have passed check).
type queryTerms struct {
	q     *workload.Query
	rows  float64 // the table's row count
	width float64 // summed width of the referenced columns
	sel   float64 // product of the clamped predicate selectivities
}

func (db *DB) terms(q *workload.Query) queryTerms {
	t, _ := db.Schema.Table(q.Spec.Table)
	qt := queryTerms{q: q, rows: float64(t.Rows), sel: 1.0}
	q.EachColumn(func(c int) bool {
		qt.width += float64(db.Schema.Column(c).Type.Width())
		return true
	})
	for _, p := range q.Spec.Preds {
		s := p.Sel
		if s <= 0 {
			s = 1e-9
		}
		if s > 1 {
			s = 1
		}
		qt.sel *= s
	}
	return qt
}

// via costs the query through s alone: false unless s is a sample of the
// query's table that can answer it.
func (qt *queryTerms) via(s designer.Structure) (float64, bool) {
	sm, ok := s.(*Sample)
	if !ok || sm.Table != qt.q.Spec.Table || !answerable(qt.q, sm) {
		return 0, false
	}
	return qt.pathCost(sm.Fraction), true
}

// pathCost estimates the latency of the query scanning the given fraction
// of its table (1 = the full table): the scanned rows' referenced width plus
// aggregation of the rows that pass the predicates.
func (qt *queryTerms) pathCost(fraction float64) float64 {
	scanned := math.Max(qt.rows*fraction, 1)
	cost := fixedOverheadMs + scanned*qt.width/scanBytesPerMs
	if len(qt.q.Spec.GroupBy) > 0 {
		cost += math.Max(scanned*qt.sel, 1) / aggRowsPerMs
	}
	return cost
}

// BaselineCost returns f(W, empty design).
func (db *DB) BaselineCost(w *workload.Workload) float64 {
	var total float64
	for _, it := range w.Items {
		c, err := db.Cost(context.Background(), it.Q, nil)
		if err != nil {
			continue
		}
		total += it.Weight * c
	}
	return total
}
