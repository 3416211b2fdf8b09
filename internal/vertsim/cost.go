package vertsim

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

// Cost-model constants, in milliseconds-producing units. They are tuned so
// that full scans of the warehouse fact tables land in the multi-second
// range and covered, sort-matched queries land in the tens of milliseconds —
// the latency regime of the paper's Figures 7-9.
const (
	// scanBytesPerMs is the modeled sequential scan rate (40 MB/s).
	scanBytesPerMs = 40_000.0
	// aggRowsPerMs is the hash-aggregation throughput.
	aggRowsPerMs = 8_000.0
	// sortRowFactor divides rows*log2(rows) for explicit sorts.
	sortRowFactor = 150_000.0
	// fixedOverheadMs models planning and dispatch per query.
	fixedOverheadMs = 30.0
	// scanCompression is the scan-rate advantage of reading a sorted,
	// RLE-encoded projection (storage compression is stronger, see
	// sortedCompression in projection.go).
	scanCompression = 0.9
)

// DB is a simulated columnar database instance: a schema, an optional
// physical dataset (for the executor), and a what-if cost model. DB
// implements designer.CostModel. The cost path reads only immutable state,
// so the cost model is safe (and scalable) under CliffGuard's parallel
// neighborhood evaluation.
type DB struct {
	Schema *schema.Schema
	Data   *datagen.Dataset // nil means cost-model only

	met *obs.Metrics // nil disables instrumentation

	sortedMu sync.Mutex
	sorted   map[string][]int32 // projection key -> row permutation (executor)
}

// Instrument attaches a metrics registry that counts Cost invocations. Call
// it before sharing the DB across goroutines.
func (db *DB) Instrument(m *obs.Metrics) { db.met = m }

// Open returns a cost-model-only DB over the schema.
func Open(s *schema.Schema) *DB {
	return &DB{
		Schema: s,
		sorted: make(map[string][]int32),
	}
}

// OpenWithData returns a DB whose executor runs against the dataset.
func OpenWithData(data *datagen.Dataset) *DB {
	db := Open(data.Schema)
	db.Data = data
	return db
}

// Cost implements designer.CostModel: the estimated latency (ms) of q under
// design d, using the cheapest applicable access path (a covering projection
// or the super-projection). A cancelled ctx aborts with ctx.Err() before any
// estimation work.
func (db *DB) Cost(ctx context.Context, q *workload.Query, d *designer.Design) (float64, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	if db.met != nil {
		db.met.CostModelCalls.Inc()
	}
	_, best, err := db.BestPath(q, d)
	return best, err
}

// Paths implements designer.PathCoster: the super-projection's cost (exactly
// Cost(ctx, q, nil), one counted call) and q's cost through one projection
// alone, false when it is not a covering projection of q's anchor. The
// per-query terms are computed here, once for every cell via costs.
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
	return qt.pathCost(nil), qt.via, nil
}

// BestPath returns the chosen projection (nil for the super-projection) and
// its estimated cost. The executor uses it to run the same plan the
// estimator picked.
func (db *DB) BestPath(q *workload.Query, d *designer.Design) (*Projection, float64, error) {
	if err := db.check(q); err != nil {
		return nil, 0, err
	}
	qt := db.terms(q)
	var bestP *Projection
	best := qt.pathCost(nil) // super-projection
	if d != nil {
		for _, s := range d.Structures {
			if c, ok := qt.via(s); ok && c < best {
				best, bestP = c, s.(*Projection)
			}
		}
	}
	return bestP, best, nil
}

// check validates that the query is within the simulator's costable subset:
// a spec over a single known anchor table whose referenced columns all
// belong to that table. The common case is one set containment against the
// anchor's column set; only a query that fails it walks its columns to name
// the first offender.
func (db *DB) check(q *workload.Query) error {
	if q == nil || q.Spec == nil {
		return fmt.Errorf("vertsim: query without spec: %w", designer.ErrUnsupported)
	}
	t, ok := db.Schema.Table(q.Spec.Table)
	if !ok {
		return fmt.Errorf("vertsim: unknown table %q: %w", q.Spec.Table, designer.ErrUnsupported)
	}
	if q.ColumnsWithin(t.ColumnSet()) {
		return nil
	}
	var err error
	q.EachColumn(func(c int) bool {
		if !db.Schema.ValidID(c) {
			err = fmt.Errorf("vertsim: invalid column %d: %w", c, designer.ErrUnsupported)
		} else if db.Schema.Column(c).Table != q.Spec.Table {
			err = fmt.Errorf("vertsim: column %s outside anchor %q: %w",
				db.Schema.Column(c).Qualified(), q.Spec.Table, designer.ErrUnsupported)
		}
		return err == nil
	})
	return err
}

// queryTerms are the path-independent parts of q's path costs, computed
// once per query (q must have passed check).
type queryTerms struct {
	q        *workload.Query
	rows     float64 // the anchor's row count
	width    float64 // summed width of the referenced columns
	totalSel float64 // product of the clamped predicate selectivities
	groups   float64 // groupEstimate of the GROUP BY (grouped queries only)
}

func (db *DB) terms(q *workload.Query) queryTerms {
	t, _ := db.Schema.Table(q.Spec.Table)
	qt := queryTerms{q: q, rows: float64(t.Rows), totalSel: 1.0}
	q.EachColumn(func(c int) bool {
		qt.width += float64(db.Schema.Column(c).Type.Width())
		return true
	})
	for _, pred := range q.Spec.Preds {
		qt.totalSel *= clampSel(pred.Sel)
	}
	if len(q.Spec.GroupBy) > 0 {
		qt.groups = db.groupEstimate(q.Spec.GroupBy)
	}
	return qt
}

// via costs the query through s alone: false unless s is a projection of
// the query's anchor covering every referenced column.
func (qt *queryTerms) via(s designer.Structure) (float64, bool) {
	p, ok := s.(*Projection)
	if !ok || p.Anchor != qt.q.Spec.Table || !qt.q.ColumnsWithin(p.Cols) {
		return 0, false
	}
	return qt.pathCost(p), true
}

// pathCost estimates the latency of the query via projection p (nil =
// super-projection):
//
//	scan  = rowsScanned * referencedWidth / scanRate
//	agg   = outputRows / aggRate            (if grouped)
//	sort  = outRows*log2(outRows)/sortRate  (if ORDER BY unsatisfied)
//
// rowsScanned shrinks by the selectivity of predicates matching the
// projection's sort-key prefix: equalities extend the usable prefix, the
// first range predicate uses it and stops, and the super-projection (no sort
// order) always scans everything.
func (qt *queryTerms) pathCost(p *Projection) float64 {
	q := qt.q
	prefixSel := 1.0
	var sortCols []workload.OrderCol
	compression := 1.0 // super-projection: unsorted, no run-length encoding
	if p != nil {
		sortCols = p.SortCols
		if len(sortCols) > 0 {
			// Sorted projections scan somewhat compressed data; the real win
			// comes from sort-prefix pruning, not from mere coverage.
			compression = scanCompression
		}
	}
	for _, oc := range sortCols {
		pred, ok := predOn(q.Spec.Preds, oc.Col)
		if !ok {
			break
		}
		prefixSel *= clampSel(pred.Sel)
		if pred.Op != workload.Eq {
			break // a range consumes the prefix
		}
	}

	rowsScanned := math.Max(qt.rows*prefixSel, 1)
	outRows := math.Max(qt.rows*qt.totalSel, 1)

	cost := fixedOverheadMs
	cost += rowsScanned * qt.width * compression / scanBytesPerMs

	if len(q.Spec.GroupBy) > 0 {
		aggCost := outRows / aggRowsPerMs
		if groupBySortStreamed(q, sortCols) {
			// Rows arrive clustered by the grouping key: streaming (one-pass,
			// no hash table) aggregation.
			aggCost *= 0.1
		}
		cost += aggCost
		outRows = math.Min(outRows, qt.groups)
	}
	if len(q.Spec.OrderBy) > 0 && !orderSatisfied(q.Spec, sortCols) {
		cost += outRows * math.Log2(outRows+2) / sortRowFactor
	}
	return cost
}

// groupBySortStreamed reports whether the path's sort key leads with the
// query's group-by columns (in any order), enabling one-pass aggregation.
func groupBySortStreamed(q *workload.Query, sortCols []workload.OrderCol) bool {
	n := len(q.Spec.GroupBy)
	if n == 0 || n > len(sortCols) {
		return false
	}
	for i := 0; i < n; i++ {
		if !q.GroupBy.Has(sortCols[i].Col) {
			return false
		}
	}
	return true
}

// groupEstimate caps the number of output groups by the product of group-by
// column cardinalities.
func (db *DB) groupEstimate(groupBy []int) float64 {
	est := 1.0
	for _, c := range groupBy {
		est *= float64(db.Schema.Column(c).Cardinality)
		if est > 1e12 {
			return 1e12
		}
	}
	return est
}

// orderSatisfied reports whether a path's sort order already delivers the
// query's ORDER BY (ORDER BY must be a direction-matching prefix of the sort
// key, and only when the query does not regroup rows).
func orderSatisfied(spec *workload.Spec, sortCols []workload.OrderCol) bool {
	if len(spec.GroupBy) > 0 {
		return false // aggregation destroys scan order
	}
	if len(spec.OrderBy) > len(sortCols) {
		return false
	}
	for i, oc := range spec.OrderBy {
		if sortCols[i].Col != oc.Col || sortCols[i].Desc != oc.Desc {
			return false
		}
	}
	return true
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

// BaselineCost returns f(W, empty design): the workload's cost with no
// projections (the paper's NoDesign upper bound, also used by delta_latency).
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
