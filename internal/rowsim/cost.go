package rowsim

import (
	"context"
	"fmt"
	"math"
	"sync"

	"cliffguard/internal/datagen"
	"cliffguard/internal/designer"
	"cliffguard/internal/obs"
	"cliffguard/internal/schema"
	"cliffguard/internal/workload"
)

// Cost-model constants. The row store reads whole rows on a scan (unlike the
// columnar simulator) and pays a random-access penalty when an index leads
// to base-table fetches. The paper's DBMS-X evaluation ran on a much smaller
// dataset (20 GB vs 151 GB); RowFraction scales modeled row counts to mirror
// that.
const (
	scanBytesPerMs   = 60_000.0 // sequential scan rate
	randomPenalty    = 100.0    // per-fetched-row random access multiplier
	probeMsPerLookup = 0.02     // B-tree descent
	aggRowsPerMs     = 8_000.0
	sortRowFactor    = 150_000.0
	fixedOverheadMs  = 12.0
)

// DB is a simulated row-store instance. It implements designer.CostModel.
// The cost path reads only immutable state, so CliffGuard's parallel
// neighborhood evaluation may share one DB.
type DB struct {
	Schema *schema.Schema
	Data   *datagen.Dataset
	// RowFraction scales the schema's modeled row counts (default 1.0).
	RowFraction float64

	met *obs.Metrics // nil disables instrumentation

	auxMu  sync.Mutex
	perms  map[string][]int32 // index key -> sorted row permutation
	mviews map[string]*mvData // matview key -> materialized groups
}

// Instrument attaches a metrics registry that counts Cost invocations. Call
// it before sharing the DB across goroutines.
func (db *DB) Instrument(m *obs.Metrics) { db.met = m }

// Open returns a cost-model-only row-store DB.
func Open(s *schema.Schema) *DB {
	return &DB{
		Schema:      s,
		RowFraction: 1.0,
		perms:       make(map[string][]int32),
		mviews:      make(map[string]*mvData),
	}
}

// OpenWithData returns a DB whose executor runs against the dataset.
func OpenWithData(data *datagen.Dataset) *DB {
	db := Open(data.Schema)
	db.Data = data
	return db
}

// rows returns the modeled row count of a table after RowFraction scaling.
func (db *DB) rows(t *schema.Table) float64 {
	f := db.RowFraction
	if f <= 0 {
		f = 1
	}
	return math.Max(float64(t.Rows)*f, 1)
}

// Cost implements designer.CostModel. A cancelled ctx aborts with ctx.Err()
// before any estimation work.
func (db *DB) Cost(ctx context.Context, q *workload.Query, d *designer.Design) (float64, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	if db.met != nil {
		db.met.CostModelCalls.Inc()
	}
	_, best, err := db.bestAccess(q, d)
	return best, err
}

// Paths implements designer.PathCoster: the full scan's cost (exactly
// Cost(ctx, q, nil), one counted call) and q's cost through one index or
// materialized view alone, false when it cannot serve q (another table, no
// usable key prefix, or a view that cannot answer it). The per-query terms
// are computed here, once for every cell via costs.
func (db *DB) Paths(ctx context.Context, q *workload.Query) (float64, func(designer.Structure) (float64, bool), error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
	}
	if db.met != nil {
		db.met.CostModelCalls.Inc()
	}
	t, err := db.check(q)
	if err != nil {
		return 0, nil, err
	}
	qt := db.terms(q, t)
	return qt.scan, qt.via, nil
}

// bestAccess returns the chosen structure (nil = full scan) and its cost;
// the executor follows this decision.
func (db *DB) bestAccess(q *workload.Query, d *designer.Design) (designer.Structure, float64, error) {
	t, err := db.check(q)
	if err != nil {
		return nil, 0, err
	}
	qt := db.terms(q, t)
	var bestS designer.Structure
	best := qt.scan
	if d != nil {
		for _, s := range d.Structures {
			if c, ok := qt.via(s); ok && c < best {
				best, bestS = c, s
			}
		}
	}
	return bestS, best, nil
}

// check validates that the query is costable — a spec over a known table
// whose referenced columns all belong to it — and returns that table. The
// common case is one set containment against the table's column set; only a
// query that fails it walks its columns to name the first offender.
func (db *DB) check(q *workload.Query) (*schema.Table, error) {
	if q == nil || q.Spec == nil {
		return nil, fmt.Errorf("rowsim: query without spec: %w", designer.ErrUnsupported)
	}
	t, ok := db.Schema.Table(q.Spec.Table)
	if !ok {
		return nil, fmt.Errorf("rowsim: unknown table %q: %w", q.Spec.Table, designer.ErrUnsupported)
	}
	if q.ColumnsWithin(t.ColumnSet()) {
		return t, nil
	}
	var err error
	q.EachColumn(func(c int) bool {
		if !db.Schema.ValidID(c) || db.Schema.Column(c).Table != q.Spec.Table {
			err = fmt.Errorf("rowsim: column %d outside anchor %q: %w", c, q.Spec.Table, designer.ErrUnsupported)
		}
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// queryTerms are the path-independent parts of q's access costs, computed
// once per query (q must have passed check; t is its table).
type queryTerms struct {
	db       *DB
	q        *workload.Query
	t        *schema.Table
	rows     float64 // modeled row count after RowFraction scaling
	width    float64 // summed width of the referenced columns
	totalSel float64 // product of the clamped predicate selectivities
	post     float64 // postCost of the rows passing the predicates
	scan     float64 // the full scan: the row store reads entire rows
}

func (db *DB) terms(q *workload.Query, t *schema.Table) queryTerms {
	qt := queryTerms{db: db, q: q, t: t, rows: db.rows(t), totalSel: totalSel(q.Spec)}
	q.EachColumn(func(c int) bool {
		qt.width += float64(db.Schema.Column(c).Type.Width())
		return true
	})
	qt.post = db.postCost(q, qt.rows*qt.totalSel)
	qt.scan = fixedOverheadMs + qt.rows*float64(t.RowWidth())/scanBytesPerMs + qt.post
	return qt
}

// via costs the query through s alone: false unless s is an index or
// materialized view on the query's table that can serve it.
func (qt *queryTerms) via(s designer.Structure) (float64, bool) {
	switch st := s.(type) {
	case *Index:
		if st.Table == qt.q.Spec.Table {
			return qt.indexCost(st)
		}
	case *MatView:
		if st.Table == qt.q.Spec.Table {
			return qt.mvCost(st)
		}
	}
	return 0, false
}

// indexCost estimates access via an index, if applicable: the query must
// have an equality-prefix (optionally ending in one range) on the index key.
// A covering index avoids base-table fetches entirely.
func (qt *queryTerms) indexCost(idx *Index) (float64, bool) {
	spec := qt.q.Spec
	matchSel := 1.0
	matched := 0
	for _, keyCol := range idx.Cols {
		p, ok := predOn(spec.Preds, keyCol)
		if !ok {
			break
		}
		matchSel *= clampSel(p.Sel)
		matched++
		if p.Op != workload.Eq {
			break
		}
	}
	if matched == 0 {
		return 0, false
	}
	fetched := math.Max(qt.rows*matchSel, 1)

	cost := fixedOverheadMs + probeMsPerLookup*math.Log2(qt.rows+2)
	if qt.q.ColumnsWithin(idx.AllCols()) {
		// Index-only scan over the matched range.
		cost += fetched * qt.width / scanBytesPerMs
	} else {
		// Base-table fetch per matched row, with random access penalty.
		cost += fetched * float64(qt.t.RowWidth()) * randomPenalty / scanBytesPerMs
	}
	return cost + qt.post, true
}

// mvCost estimates answering the query from a materialized view: the query's
// group-by must be a subset of the view's, every aggregate precomputed, no
// bare select columns beyond group-by columns, and predicates restricted to
// the view's group-by columns. Note the subset rule: re-aggregation rolls
// finer groups up into coarser ones.
func (qt *queryTerms) mvCost(mv *MatView) (float64, bool) {
	spec := qt.q.Spec
	if len(spec.GroupBy) == 0 || len(spec.Aggs) == 0 {
		return 0, false
	}
	gset := mv.GroupSet()
	for _, c := range spec.GroupBy {
		if !gset.Has(c) {
			return 0, false
		}
	}
	for _, c := range spec.SelectCols {
		if !gset.Has(c) {
			return 0, false
		}
	}
	for _, a := range spec.Aggs {
		if !mv.HasAgg(a) {
			return 0, false
		}
		// MIN/MAX/COUNT/SUM roll up; AVG rolls up via SUM+COUNT (HasAgg
		// enforces availability).
	}
	for _, p := range spec.Preds {
		if !gset.Has(p.Col) {
			return 0, false
		}
	}
	db := qt.db
	mvRows := math.Min(float64(mv.Groups()), qt.rows)
	var width float64
	for _, c := range mv.GroupBy {
		width += float64(db.Schema.Column(c).Type.Width())
	}
	width += float64(len(mv.Aggs)) * 8
	cost := fixedOverheadMs + mvRows*width/scanBytesPerMs
	return cost + db.postCost(qt.q, mvRows*qt.totalSel), true
}

// postCost adds aggregation and sort costs downstream of the access path.
func (db *DB) postCost(q *workload.Query, outRows float64) float64 {
	spec := q.Spec
	outRows = math.Max(outRows, 1)
	var cost float64
	if len(spec.GroupBy) > 0 {
		cost += outRows / aggRowsPerMs
		groups := 1.0
		for _, c := range spec.GroupBy {
			groups *= float64(db.Schema.Column(c).Cardinality)
			if groups > outRows {
				groups = outRows
				break
			}
		}
		outRows = math.Min(outRows, groups)
	}
	if len(spec.OrderBy) > 0 {
		cost += outRows * math.Log2(outRows+2) / sortRowFactor
	}
	return cost
}

func totalSel(spec *workload.Spec) float64 {
	s := 1.0
	for _, p := range spec.Preds {
		s *= clampSel(p.Sel)
	}
	return s
}

func predOn(preds []workload.Pred, col int) (workload.Pred, bool) {
	for _, p := range preds {
		if p.Col == col {
			return p, true
		}
	}
	return workload.Pred{}, false
}

func clampSel(s float64) float64 {
	if s <= 0 {
		return 1e-9
	}
	if s > 1 {
		return 1
	}
	return s
}

// NewIndex builds an index whose modeled size reflects this instance's
// RowFraction scaling (package-level NewIndex sizes at full modeled rows).
func (db *DB) NewIndex(table string, cols, include []int) (*Index, error) {
	idx, err := NewIndex(db.Schema, table, cols, include)
	if err != nil {
		return nil, err
	}
	if f := db.RowFraction; f > 0 && f < 1 {
		idx.size = int64(float64(idx.size) * f)
	}
	return idx, nil
}

// NewMatView builds a materialized view whose modeled size reflects this
// instance's RowFraction scaling.
func (db *DB) NewMatView(table string, groupBy []int, aggs []workload.Agg) (*MatView, error) {
	mv, err := NewMatView(db.Schema, table, groupBy, aggs)
	if err != nil {
		return nil, err
	}
	if f := db.RowFraction; f > 0 && f < 1 {
		scaled := int64(float64(mv.groups) * 1) // group count does not scale linearly with rows
		t, _ := db.Schema.Table(table)          // NewMatView validated it
		rows := int64(db.rows(t))
		if scaled > rows {
			mv.size = mv.size / maxI64(mv.groups/rows, 1)
			mv.groups = rows
		}
	}
	return mv, nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
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
