package aqesim

import (
	"context"
	"testing"

	"cliffguard/internal/designer"
	"cliffguard/internal/schema"
	"cliffguard/internal/workload"
)

// twoTableSchema is two fact tables, f (columns 0-3) and g (column 4), for
// tests that need a column or structure off the anchor.
func twoTableSchema() *schema.Schema {
	return schema.MustNew([]schema.TableDef{
		{Name: "f", Fact: true, Rows: 2_000_000, Columns: []schema.ColumnDef{
			{Name: "a", Type: schema.Int64, Cardinality: 50},
			{Name: "b", Type: schema.Int64, Cardinality: 20},
			{Name: "c", Type: schema.Int64, Cardinality: 10},
			{Name: "d", Type: schema.Float64, Cardinality: 100_000},
		}},
		{Name: "g", Fact: true, Rows: 1_000_000, Columns: []schema.ColumnDef{
			{Name: "k", Type: schema.Int64, Cardinality: 10},
		}},
	})
}

// TestCostMemoHitAllocatesNothing gates the allocation-free what-if call:
// once every (query, path) pair is memoized, Cost checks the query and tests
// each sample's strata from precomputed column sets, allocating nothing. The
// designs are none, a sample answering the query, and a sample on another
// table (skipped by the anchor test).
func TestCostMemoHitAllocatesNothing(t *testing.T) {
	s := twoTableSchema()
	db := Open(s)
	query := q(&workload.Spec{Table: "f", SelectCols: []int{0}, GroupBy: []int{0},
		Aggs:  []workload.Agg{{Fn: workload.Count, Col: -1}, {Fn: workload.Sum, Col: 3}},
		Preds: []workload.Pred{{Col: 2, Op: workload.Eq, Lo: 1, Hi: 1, Sel: 0.1}}})
	answering, err := NewSample(s, "f", []int{0, 2}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewSample(s, "g", []int{4}, 0.01)
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
		"covering":     designer.NewDesign(answering),
		"other-anchor": designer.NewDesign(other),
	} {
		c, err := db.Cost(ctx, query, d) // warm the memo
		if err != nil {
			t.Fatal(err)
		}
		if name == "covering" && c >= base {
			t.Fatalf("answering sample cost %g, want below the full scan's %g", c, base)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := db.Cost(ctx, query, d); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s design: memo-hit Cost allocates %v times per call, want 0", name, allocs)
		}
	}
}
