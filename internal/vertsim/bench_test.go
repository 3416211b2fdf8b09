package vertsim

import (
	"context"
	"testing"
	"time"

	"cliffguard/internal/datagen"
	"cliffguard/internal/designer"
	"cliffguard/internal/workload"
)

func benchQuery() *workload.Query {
	return workload.FromSpec(workload.NextID(), time.Time{}, &workload.Spec{
		Table:      "f",
		SelectCols: []int{1},
		GroupBy:    []int{1},
		Aggs:       []workload.Agg{{Fn: workload.Count, Col: -1}, {Fn: workload.Sum, Col: 2}},
		Preds:      []workload.Pred{{Col: 2, Op: workload.Eq, Lo: 42, Hi: 42, Sel: 1.0 / 300}},
	})
}

// BenchmarkExecutorScan measures a full super-projection scan with
// aggregation over the physical data.
func BenchmarkExecutorScan(b *testing.B) {
	s := execSchema()
	db := OpenWithData(datagen.Generate(s, 5_000, 7))
	q := benchQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Execute(q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutorProjection measures the sort-matched projection path
// (binary-search narrowing) on the same query.
func BenchmarkExecutorProjection(b *testing.B) {
	s := execSchema()
	db := OpenWithData(datagen.Generate(s, 5_000, 7))
	q := benchQuery()
	p, err := NewProjection(s, "f", []int{1, 2}, []workload.OrderCol{{Col: 2}})
	if err != nil {
		b.Fatal(err)
	}
	d := designer.NewDesign(p)
	if _, err := db.Execute(q, d); err != nil { // build the permutation once
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Execute(q, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWhatIfCost measures one un-memoized what-if estimate.
func BenchmarkWhatIfCost(b *testing.B) {
	s := testSchema()
	db := Open(s)
	p, _ := NewProjection(s, "f", []int{0, 1, 2, 3}, []workload.OrderCol{{Col: 1}})
	d := designer.NewDesign(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh query per iteration defeats the memo, measuring the model.
		q := benchQuery()
		if _, err := db.Cost(context.Background(), q, d); err != nil {
			b.Fatal(err)
		}
	}
}

// memoHitDesigns are the designs the memo-hit allocation gate costs under:
// none, one projection covering benchQuery, and one projection on another
// anchor (skipped by the anchor test before any coverage work).
func memoHitDesigns(tb testing.TB) map[string]*designer.Design {
	s := testSchema()
	covering, err := NewProjection(s, "f", []int{0, 1, 2, 3}, []workload.OrderCol{{Col: 2}})
	if err != nil {
		tb.Fatal(err)
	}
	other, err := NewProjection(s, "dim", []int{6}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]*designer.Design{
		"nil":          nil,
		"covering":     designer.NewDesign(covering),
		"other-anchor": designer.NewDesign(other),
	}
}

// TestCostMemoHitAllocatesNothing gates the allocation-free what-if call: once
// a (query, path) pair is memoized, Cost checks and covers the query from the
// column sets it already carries and allocates nothing.
func TestCostMemoHitAllocatesNothing(t *testing.T) {
	db := Open(testSchema())
	q := benchQuery()
	ctx := context.Background()
	designs := memoHitDesigns(t)
	base, err := db.Cost(ctx, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range designs {
		c, err := db.Cost(ctx, q, d) // warm the memo
		if err != nil {
			t.Fatal(err)
		}
		if name == "covering" && c >= base {
			t.Fatalf("covering projection cost %g, want below the super-projection's %g", c, base)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := db.Cost(ctx, q, d); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s design: memo-hit Cost allocates %v times per call, want 0", name, allocs)
		}
	}
}

// BenchmarkCostMemoHit measures one memoized what-if call under a design
// with a covering projection: the designer's pair-table rebuilds are mostly
// these.
func BenchmarkCostMemoHit(b *testing.B) {
	db := Open(testSchema())
	q := benchQuery()
	d := memoHitDesigns(b)["covering"]
	ctx := context.Background()
	if _, err := db.Cost(ctx, q, d); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Cost(ctx, q, d); err != nil {
			b.Fatal(err)
		}
	}
}
