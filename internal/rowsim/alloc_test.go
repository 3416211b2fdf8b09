package rowsim

import (
	"context"
	"testing"

	"cliffguard/internal/designer"
	"cliffguard/internal/schema"
	"cliffguard/internal/workload"
)

// twoTableSchema is a fact table f (columns 0-2) and a dimension dim
// (column 3), for tests that need a column or structure off the anchor.
func twoTableSchema() *schema.Schema {
	return schema.MustNew([]schema.TableDef{
		{Name: "f", Fact: true, Rows: 500_000, Columns: []schema.ColumnDef{
			{Name: "a", Type: schema.Int64, Cardinality: 1000},
			{Name: "b", Type: schema.Int64, Cardinality: 100},
			{Name: "c", Type: schema.Float64, Cardinality: 10_000},
		}},
		{Name: "dim", Rows: 100, Columns: []schema.ColumnDef{
			{Name: "k", Type: schema.Int64, Cardinality: 100},
		}},
	})
}

// TestCostMemoHitAllocatesNothing gates the allocation-free what-if call:
// every Cost call checks the query, costs the full scan and tries the
// design's indexes and views from precomputed column sets, allocating
// nothing. The designs are none, a covering index (the index-only branch),
// a materialized view the query rolls up from, and an index on another
// table (skipped by the anchor test).
func TestCostMemoHitAllocatesNothing(t *testing.T) {
	s := twoTableSchema()
	db := Open(s)
	query := q(&workload.Spec{Table: "f", SelectCols: []int{1}, GroupBy: []int{1},
		Aggs:  []workload.Agg{{Fn: workload.Count, Col: -1}, {Fn: workload.Sum, Col: 2}},
		Preds: []workload.Pred{{Col: 0, Op: workload.Eq, Lo: 7, Hi: 7, Sel: 0.001}}})
	covering, err := NewIndex(s, "f", []int{0}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	view, err := NewMatView(s, "f", []int{0, 1},
		[]workload.Agg{{Fn: workload.Count, Col: -1}, {Fn: workload.Sum, Col: 2}})
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewIndex(s, "dim", []int{3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base, err := db.Cost(ctx, query, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*designer.Design{
		"nil":          nil,
		"covering":     designer.NewDesign(covering),
		"matview":      designer.NewDesign(view),
		"other-anchor": designer.NewDesign(other),
	} {
		c, err := db.Cost(ctx, query, d)
		if err != nil {
			t.Fatal(err)
		}
		if (name == "covering" || name == "matview") && c >= base {
			t.Fatalf("%s design cost %g, want below the full scan's %g", name, c, base)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := db.Cost(ctx, query, d); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s design: Cost allocates %v times per call, want 0", name, allocs)
		}
	}
}
