package rowsim

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"cliffguard/internal/datagen"
	"cliffguard/internal/designer"
	"cliffguard/internal/schema"
	"cliffguard/internal/workload"
)

func testSchema() *schema.Schema {
	return schema.MustNew([]schema.TableDef{
		{
			Name: "f", Fact: true, Rows: 500_000,
			Columns: []schema.ColumnDef{
				{Name: "a", Type: schema.Int64, Cardinality: 1000},
				{Name: "b", Type: schema.Int64, Cardinality: 100},
				{Name: "c", Type: schema.Int64, Cardinality: 10},
				{Name: "d", Type: schema.Float64, Cardinality: 10_000},
				{Name: "e", Type: schema.String, Cardinality: 50},
			},
		},
	})
}

func q(spec *workload.Spec) *workload.Query {
	return workload.FromSpec(workload.NextID(), time.Time{}, spec)
}

func TestIndexValidationAndIdentity(t *testing.T) {
	s := testSchema()
	if _, err := NewIndex(s, "nope", []int{0}, nil); err == nil {
		t.Error("unknown table should fail")
	}
	if _, err := NewIndex(s, "f", nil, nil); err == nil {
		t.Error("keyless index should fail")
	}
	if _, err := NewIndex(s, "f", []int{99}, nil); err == nil {
		t.Error("invalid column should fail")
	}
	i1, err := NewIndex(s, "f", []int{0, 1}, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	i2, _ := NewIndex(s, "f", []int{1, 0}, []int{3})
	if i1.Key() == i2.Key() {
		t.Error("key column order must change identity")
	}
	i3, _ := NewIndex(s, "f", []int{0, 1}, []int{3, 3})
	if i1.Key() != i3.Key() {
		t.Error("duplicate includes should deduplicate")
	}
	// size: rows * (8 rowid + 8 + 8 key + 8 include)
	if want := int64(500_000 * (8 + 8 + 8 + 8)); i1.SizeBytes() != want {
		t.Errorf("size = %d, want %d", i1.SizeBytes(), want)
	}
	if !i1.AllCols().Has(0) || !i1.AllCols().Has(3) {
		t.Error("AllCols missing members")
	}
}

func TestMatViewValidation(t *testing.T) {
	s := testSchema()
	if _, err := NewMatView(s, "f", nil, []workload.Agg{{Fn: workload.Count, Col: -1}}); err == nil {
		t.Error("groupless view should fail")
	}
	if _, err := NewMatView(s, "f", []int{2}, nil); err == nil {
		t.Error("aggless view should fail")
	}
	mv, err := NewMatView(s, "f", []int{2, 1}, []workload.Agg{
		{Fn: workload.Count, Col: -1}, {Fn: workload.Sum, Col: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Group estimate: card(c)=10 x card(b)=100 = 1000.
	if mv.Groups() != 1000 {
		t.Errorf("groups = %d, want 1000", mv.Groups())
	}
	if !mv.HasAgg(workload.Agg{Fn: workload.Sum, Col: 3}) {
		t.Error("HasAgg(SUM d) should hold")
	}
	// AVG answers via SUM + COUNT(*).
	if !mv.HasAgg(workload.Agg{Fn: workload.Avg, Col: 3}) {
		t.Error("HasAgg(AVG d) should hold via SUM+COUNT")
	}
	if mv.HasAgg(workload.Agg{Fn: workload.Min, Col: 3}) {
		t.Error("HasAgg(MIN d) should not hold")
	}
}

func TestCostModelAccessPaths(t *testing.T) {
	s := testSchema()
	db := Open(s)

	query := q(&workload.Spec{
		Table:      "f",
		SelectCols: []int{0, 3},
		Preds:      []workload.Pred{{Col: 0, Op: workload.Eq, Lo: 7, Hi: 7, Sel: 0.001}},
	})
	base, err := db.Cost(context.Background(), query, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Plain index: helps, but pays random access.
	plain, _ := NewIndex(s, "f", []int{0}, nil)
	cPlain, _ := db.Cost(context.Background(), query, designer.NewDesign(plain))
	if cPlain >= base {
		t.Fatalf("plain index did not help: %g vs %g", cPlain, base)
	}

	// Covering index: index-only scan, much cheaper than plain.
	covering, _ := NewIndex(s, "f", []int{0}, []int{3})
	cCover, _ := db.Cost(context.Background(), query, designer.NewDesign(covering))
	if cCover >= cPlain {
		t.Fatalf("covering index %g should beat plain %g", cCover, cPlain)
	}

	// Index without a matching prefix predicate is inapplicable.
	wrong, _ := NewIndex(s, "f", []int{1}, nil)
	cWrong, _ := db.Cost(context.Background(), query, designer.NewDesign(wrong))
	if cWrong != base {
		t.Fatalf("non-matching index changed cost: %g vs %g", cWrong, base)
	}
}

func TestCostModelMatView(t *testing.T) {
	s := testSchema()
	db := Open(s)
	query := q(&workload.Spec{
		Table:      "f",
		SelectCols: []int{2},
		GroupBy:    []int{2},
		Aggs:       []workload.Agg{{Fn: workload.Count, Col: -1}, {Fn: workload.Sum, Col: 3}},
	})
	base, _ := db.Cost(context.Background(), query, nil)

	mv, _ := NewMatView(s, "f", []int{2}, []workload.Agg{
		{Fn: workload.Count, Col: -1}, {Fn: workload.Sum, Col: 3}})
	fast, _ := db.Cost(context.Background(), query, designer.NewDesign(mv))
	if fast >= base/10 || fast >= 2*fixedOverheadMs {
		t.Fatalf("matview cost %g, want overhead-dominated and far below %g", fast, base)
	}

	// Roll-up: a coarser query (group by subset) is still answerable from a
	// finer view.
	fine, _ := NewMatView(s, "f", []int{2, 1}, []workload.Agg{
		{Fn: workload.Count, Col: -1}, {Fn: workload.Sum, Col: 3}})
	rolled, _ := db.Cost(context.Background(), query, designer.NewDesign(fine))
	if rolled >= base {
		t.Fatal("roll-up from finer view should help")
	}

	// A query with a predicate outside the view's group-by cannot use it.
	filtered := q(&workload.Spec{
		Table:   "f",
		GroupBy: []int{2},
		Aggs:    []workload.Agg{{Fn: workload.Count, Col: -1}},
		Preds:   []workload.Pred{{Col: 0, Op: workload.Eq, Lo: 1, Hi: 1, Sel: 0.001}},
	})
	cf, _ := db.Cost(context.Background(), filtered, designer.NewDesign(mv))
	baseF, _ := db.Cost(context.Background(), filtered, nil)
	if cf != baseF {
		t.Fatal("view should be inapplicable with an out-of-view predicate")
	}
}

func TestRowFractionScalesCosts(t *testing.T) {
	s := testSchema()
	full := Open(s)
	frac := Open(s)
	frac.RowFraction = 0.1
	query := q(&workload.Spec{Table: "f", SelectCols: []int{0}})
	cFull, _ := full.Cost(context.Background(), query, nil)
	cFrac, _ := frac.Cost(context.Background(), query, nil)
	if cFrac >= cFull {
		t.Fatalf("RowFraction did not scale cost: %g vs %g", cFrac, cFull)
	}
	// Scaled structure sizes via the DB constructors.
	i1, _ := NewIndex(s, "f", []int{0}, nil)
	i2, err := frac.NewIndex("f", []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if i2.SizeBytes() >= i1.SizeBytes() {
		t.Fatalf("scaled index size %d should be below %d", i2.SizeBytes(), i1.SizeBytes())
	}
}

// TestCostUnsupported pins every ErrUnsupported message, including which
// column is named when several are off the anchor (the lowest ID).
func TestCostUnsupported(t *testing.T) {
	db := Open(twoTableSchema())
	const suffix = ": designer: query not supported by this engine"
	cases := []struct {
		q    *workload.Query
		want string
	}{
		{nil, "rowsim: query without spec"},
		{&workload.Query{ID: 1}, "rowsim: query without spec"},
		{q(&workload.Spec{Table: "nope"}), `rowsim: unknown table "nope"`},
		{q(&workload.Spec{Table: "f", SelectCols: []int{3}}), `rowsim: column 3 outside anchor "f"`},
		{q(&workload.Spec{Table: "f", SelectCols: []int{0, 99}}), `rowsim: column 99 outside anchor "f"`},
		{q(&workload.Spec{Table: "f", SelectCols: []int{99},
			Preds: []workload.Pred{{Col: 3, Op: workload.Eq, Sel: 0.5}}}), `rowsim: column 3 outside anchor "f"`},
	}
	for i, c := range cases {
		_, err := db.Cost(context.Background(), c.q, nil)
		if !errors.Is(err, designer.ErrUnsupported) || err.Error() != c.want+suffix {
			t.Errorf("case %d: err = %v, want %q", i, err, c.want+suffix)
		}
	}
}

// executor ------------------------------------------------------------------

func execSchema() *schema.Schema {
	return schema.MustNew([]schema.TableDef{{
		Name: "f", Fact: true, Rows: 4_000,
		Columns: []schema.ColumnDef{
			{Name: "a", Type: schema.Int64, Cardinality: 40},
			{Name: "b", Type: schema.Int64, Cardinality: 8},
			{Name: "c", Type: schema.Int64, Cardinality: 300},
			{Name: "d", Type: schema.Int64, Cardinality: 4},
		},
	}})
}

func canonical(rows []Row) []Row {
	out := append([]Row(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a.Key) && k < len(b.Key); k++ {
			if a.Key[k] != b.Key[k] {
				return a.Key[k] < b.Key[k]
			}
		}
		return len(a.Key) < len(b.Key)
	})
	return out
}

func rowsEqual(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Key) != len(b[i].Key) || len(a[i].Aggs) != len(b[i].Aggs) {
			return false
		}
		for j := range a[i].Key {
			if a[i].Key[j] != b[i].Key[j] {
				return false
			}
		}
		for j := range a[i].Aggs {
			if math.Abs(a[i].Aggs[j]-b[i].Aggs[j]) > 1e-9 {
				return false
			}
		}
	}
	return true
}

// TestExecutorPathsAgree: full scan, index access and materialized-view
// roll-up must all return the same result.
func TestExecutorPathsAgree(t *testing.T) {
	s := execSchema()
	data := datagen.Generate(s, 4_000, 11)
	db := OpenWithData(data)

	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		spec := &workload.Spec{Table: "f", GroupBy: []int{r.Intn(4)}}
		spec.SelectCols = []int{spec.GroupBy[0]}
		spec.Aggs = []workload.Agg{
			{Fn: workload.Count, Col: -1},
			{Fn: workload.Sum, Col: r.Intn(4)},
		}
		predCol := spec.GroupBy[0] // keep predicates answerable by the view
		card := s.Column(predCol).Cardinality
		lo := r.Int63n(card)
		hi := lo + r.Int63n(card-lo)
		spec.Preds = []workload.Pred{{Col: predCol, Op: workload.Between,
			Lo: lo, Hi: hi, Sel: float64(hi-lo+1) / float64(card)}}
		query := q(spec)

		scan, err := db.Execute(query, nil)
		if err != nil {
			return false
		}

		idx, err := NewIndex(s, "f", []int{predCol}, nil)
		if err != nil {
			return false
		}
		viaIdx, err := db.Execute(query, designer.NewDesign(idx))
		if err != nil {
			return false
		}

		mv, err := NewMatView(s, "f", []int{spec.GroupBy[0], predCol},
			[]workload.Agg{{Fn: workload.Count, Col: -1}, {Fn: workload.Sum, Col: spec.Aggs[1].Col}})
		if err != nil {
			return false
		}
		viaMV, err := db.Execute(query, designer.NewDesign(mv))
		if err != nil {
			return false
		}
		if viaMV.Access == "" {
			// MV not chosen by the optimizer; still fine as long as results
			// agree, but we want the MV exercised: force-compare anyway.
			return rowsEqual(canonical(scan.Rows), canonical(viaIdx.Rows))
		}
		return rowsEqual(canonical(scan.Rows), canonical(viaIdx.Rows)) &&
			rowsEqual(canonical(scan.Rows), canonical(viaMV.Rows))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestExecutorAvgRollupFromView(t *testing.T) {
	s := execSchema()
	data := datagen.Generate(s, 4_000, 11)
	db := OpenWithData(data)

	query := q(&workload.Spec{
		Table:      "f",
		SelectCols: []int{1},
		GroupBy:    []int{1},
		Aggs:       []workload.Agg{{Fn: workload.Avg, Col: 2}},
	})
	// The view stores SUM + COUNT; AVG must roll up from them.
	mv, _ := NewMatView(s, "f", []int{1, 3}, []workload.Agg{
		{Fn: workload.Sum, Col: 2}, {Fn: workload.Count, Col: -1}})

	scan, err := db.Execute(query, nil)
	if err != nil {
		t.Fatal(err)
	}
	rolled, err := db.Execute(query, designer.NewDesign(mv))
	if err != nil {
		t.Fatal(err)
	}
	if rolled.Access != mv.Key() {
		t.Fatalf("optimizer chose %q, want the view", rolled.Access)
	}
	if !rowsEqual(canonical(scan.Rows), canonical(rolled.Rows)) {
		t.Fatal("AVG roll-up disagrees with direct scan")
	}
	if rolled.ScannedRows >= scan.ScannedRows {
		t.Fatal("view roll-up should scan fewer rows")
	}
}

func TestExecutorIndexNarrowing(t *testing.T) {
	s := execSchema()
	data := datagen.Generate(s, 4_000, 11)
	db := OpenWithData(data)

	query := q(&workload.Spec{
		Table:      "f",
		SelectCols: []int{0, 2},
		Preds:      []workload.Pred{{Col: 2, Op: workload.Eq, Lo: 9, Hi: 9, Sel: 1.0 / 300}},
	})
	idx, _ := NewIndex(s, "f", []int{2}, []int{0})
	scan, _ := db.Execute(query, nil)
	fast, err := db.Execute(query, designer.NewDesign(idx))
	if err != nil {
		t.Fatal(err)
	}
	if fast.Access != idx.Key() {
		t.Fatalf("access = %q, want index", fast.Access)
	}
	if fast.ScannedRows >= scan.ScannedRows {
		t.Fatalf("index scanned %d rows, full scan %d", fast.ScannedRows, scan.ScannedRows)
	}
	if !rowsEqual(canonical(scan.Rows), canonical(fast.Rows)) {
		t.Fatal("index path disagrees with scan")
	}
}

// designer --------------------------------------------------------------------

func TestRowDesignerBudgetAndBenefit(t *testing.T) {
	s := testSchema()
	db := Open(s)
	rng := rand.New(rand.NewSource(5))
	var queries []*workload.Query
	for i := 0; i < 10; i++ {
		spec := &workload.Spec{Table: "f",
			SelectCols: []int{rng.Intn(5)},
			Preds: []workload.Pred{{Col: rng.Intn(5), Op: workload.Eq,
				Lo: 3, Hi: 3, Sel: 0.005}}}
		if rng.Intn(2) == 0 {
			spec.GroupBy = []int{rng.Intn(5)}
			spec.Aggs = []workload.Agg{{Fn: workload.Count, Col: -1}}
		}
		queries = append(queries, q(spec))
	}
	w := workload.New(queries...)

	budget := int64(24) << 20
	d := NewDesigner(db, budget)
	design, err := d.Design(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if design.SizeBytes() > budget {
		t.Fatalf("design %d bytes exceeds budget %d", design.SizeBytes(), budget)
	}
	before, _ := designer.WorkloadCost(context.Background(), db, w, nil)
	after, _ := designer.WorkloadCost(context.Background(), db, w, design)
	if after >= before {
		t.Fatalf("design did not help: %g -> %g", before, after)
	}
}

func TestCompressDampsAndPrunes(t *testing.T) {
	s := testSchema()
	db := Open(s)
	d := NewDesigner(db, 1<<30)

	heavy := q(&workload.Spec{Table: "f", SelectCols: []int{0}})
	rare := q(&workload.Spec{Table: "f", SelectCols: []int{1}})
	w := &workload.Workload{}
	w.Add(heavy, 10_000)
	w.Add(rare, 1) // below MinTemplateShare of the total

	cw := d.Compress(w)
	if cw.Len() != 1 {
		t.Fatalf("compressed to %d templates, want 1 (rare pruned)", cw.Len())
	}
	if got := cw.Items[0].Weight; math.Abs(got-100) > 1e-9 { // sqrt damping
		t.Errorf("damped weight = %g, want 100", got)
	}
}

func TestExplainRowStore(t *testing.T) {
	s := testSchema()
	db := Open(s)
	query := q(&workload.Spec{
		Table:      "f",
		SelectCols: []int{0, 3},
		Preds:      []workload.Pred{{Col: 0, Op: workload.Eq, Lo: 7, Hi: 7, Sel: 0.001}},
	})
	plan, err := db.Explain(query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "FULL SCAN") {
		t.Errorf("plan:\n%s", plan)
	}
	plain, _ := NewIndex(s, "f", []int{0}, nil)
	plan, _ = db.Explain(query, designer.NewDesign(plain))
	if !strings.Contains(plan, "INDEX SCAN") || !strings.Contains(plan, "base-table fetch") {
		t.Errorf("plain-index plan:\n%s", plan)
	}
	covering, _ := NewIndex(s, "f", []int{0}, []int{3})
	plan, _ = db.Explain(query, designer.NewDesign(covering))
	if !strings.Contains(plan, "INDEX-ONLY SCAN") {
		t.Errorf("covering-index plan:\n%s", plan)
	}

	agg := q(&workload.Spec{
		Table: "f", SelectCols: []int{2}, GroupBy: []int{2},
		Aggs: []workload.Agg{{Fn: workload.Count, Col: -1}},
	})
	mv, _ := NewMatView(s, "f", []int{2}, []workload.Agg{{Fn: workload.Count, Col: -1}})
	plan, _ = db.Explain(agg, designer.NewDesign(mv))
	if !strings.Contains(plan, "ROLLUP") {
		t.Errorf("matview plan:\n%s", plan)
	}
}
