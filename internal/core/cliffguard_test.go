package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"cliffguard/internal/designer"
	"cliffguard/internal/distance"
	"cliffguard/internal/sample"
	"cliffguard/internal/schema"
	"cliffguard/internal/vertsim"
	"cliffguard/internal/workload"
)

func testSchema() *schema.Schema {
	cols := make([]schema.ColumnDef, 24)
	for i := range cols {
		cols[i] = schema.ColumnDef{
			Name:        "c" + string(rune('a'+i)),
			Type:        schema.Int64,
			Cardinality: 500 + int64(i)*100,
		}
	}
	return schema.MustNew([]schema.TableDef{
		{Name: "facts", Fact: true, Rows: 500_000, Columns: cols},
	})
}

func testWorkload(s *schema.Schema, rng *rand.Rand, n int) *workload.Workload {
	tbl := s.Tables()[0]
	w := &workload.Workload{}
	for i := 0; i < n; i++ {
		spec := &workload.Spec{Table: tbl.Name}
		k := 3 + rng.Intn(4)
		for j := 0; j < k; j++ {
			spec.SelectCols = append(spec.SelectCols, tbl.Columns[rng.Intn(len(tbl.Columns))].ID)
		}
		c := tbl.Columns[rng.Intn(len(tbl.Columns))]
		spec.Preds = append(spec.Preds, workload.Pred{
			Col: c.ID, Op: workload.Eq, Lo: 3, Hi: 3, Sel: 1 / float64(c.Cardinality)})
		w.Add(workload.FromSpec(workload.NextID(), time.Time{}, spec), 1+rng.Float64()*3)
	}
	return w
}

func newGuard(s *schema.Schema, opts Options) (*CliffGuard, *vertsim.DB) {
	db := vertsim.Open(s)
	nominal := vertsim.NewDesigner(db, 256<<20)
	metric := distance.NewEuclidean(s.NumColumns())
	sampler := sample.New(metric, sample.NewMutator(s))
	return New(nominal, db, sampler, opts), db
}

func TestGammaZeroEqualsNominal(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(1))
	w := testWorkload(s, rng, 10)
	cg, db := newGuard(s, Options{Gamma: 0, Seed: 1})

	robust, traces, err := cg.DesignWithTrace(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 0 {
		t.Error("Gamma=0 should not iterate")
	}
	nominal, err := cg.Nominal.Design(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	// Identical structure sets.
	rk, nk := robust.Keys(), nominal.Keys()
	if len(rk) != len(nk) {
		t.Fatalf("designs differ: %d vs %d structures", len(rk), len(nk))
	}
	for k := range nk {
		if !rk[k] {
			t.Fatalf("missing structure %s", k)
		}
	}
	_ = db
}

func TestDesignImprovesWorstCase(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(2))
	w := testWorkload(s, rng, 12)
	cg, _ := newGuard(s, Options{Gamma: 0.004, Samples: 12, Iterations: 6, Seed: 2})

	_, traces, err := cg.DesignWithTrace(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatal("no iterations recorded")
	}
	// The incumbent worst-case must be non-increasing.
	for i := 1; i < len(traces); i++ {
		if traces[i].WorstCase > traces[i-1].WorstCase+1e-9 {
			t.Fatalf("worst-case increased at iter %d: %g -> %g",
				i, traces[i-1].WorstCase, traces[i].WorstCase)
		}
	}
	// Improved iterations must record a strictly better candidate.
	for _, tr := range traces {
		if tr.Improved && tr.CandidateCost >= tr.WorstCase {
			t.Fatalf("improved=true but candidate %g >= incumbent %g",
				tr.CandidateCost, tr.WorstCase)
		}
		if tr.Alpha <= 0 {
			t.Fatal("alpha must stay positive")
		}
	}
}

func TestRobustNotWorseThanNominalOnNeighborhood(t *testing.T) {
	// The acceptance rule guarantees the final design's sampled worst case
	// is never above the initial nominal design's.
	s := testSchema()
	rng := rand.New(rand.NewSource(3))
	w := testWorkload(s, rng, 10)
	cg, db := newGuard(s, Options{Gamma: 0.003, Samples: 10, Iterations: 5, Seed: 3})

	robust, traces, err := cg.DesignWithTrace(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	nominal, _ := cg.Nominal.Design(context.Background(), w)
	// On W0 itself the robust design can be costlier (the robustness price),
	// but not catastrophically so: the merged workload always contains W0.
	cn, _ := designer.WorkloadCost(context.Background(), db, w, nominal)
	crob, _ := designer.WorkloadCost(context.Background(), db, w, robust)
	if crob > cn*3 {
		t.Fatalf("robust design is %gx worse on W0", crob/cn)
	}
	if len(traces) > 0 {
		last := traces[len(traces)-1]
		first := traces[0]
		if last.WorstCase > first.WorstCase {
			t.Fatal("final worst-case above initial")
		}
	}
}

func TestDesignEmptyWorkload(t *testing.T) {
	s := testSchema()
	cg, _ := newGuard(s, Options{Gamma: 0.01})
	if _, err := cg.Design(context.Background(), &workload.Workload{}); err == nil {
		t.Fatal("empty workload should fail")
	}
	if _, err := cg.Design(context.Background(), nil); err == nil {
		t.Fatal("nil workload should fail")
	}
}

func TestMoveWorkloadInvariants(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(4))
	w0 := testWorkload(s, rng, 8)
	cg, _ := newGuard(s, Options{Gamma: 0.003, Samples: 8, Seed: 4})

	d, err := cg.Nominal.Design(context.Background(), w0)
	if err != nil {
		t.Fatal(err)
	}
	neighbors, err := cg.Sampler.Neighborhood(rng, w0, 0.003, 6)
	if err != nil {
		t.Fatal(err)
	}

	for _, alpha := range []float64{0.25, 1, 4} {
		moved := cg.MoveWorkload(context.Background(), w0, neighbors, d, alpha)

		// Every W0 query keeps at least its original weight.
		w0Weight := make(map[*workload.Query]float64)
		for _, it := range w0.Items {
			w0Weight[it.Q] += it.Weight
		}
		movedWeight := make(map[*workload.Query]float64)
		for _, it := range moved.Items {
			movedWeight[it.Q] += it.Weight
		}
		for q, orig := range w0Weight {
			if movedWeight[q] < orig-1e-9 {
				t.Fatalf("alpha=%g: W0 query lost weight: %g < %g", alpha, movedWeight[q], orig)
			}
		}

		// Neighbor-derived mass totals alpha x W0 mass (the step size).
		var neighborMass float64
		for q, mw := range movedWeight {
			neighborMass += mw - w0Weight[q]
		}
		want := alpha * w0.TotalWeight()
		if math.Abs(neighborMass-want) > want*0.01+1e-6 {
			t.Fatalf("alpha=%g: neighbor mass %g, want %g", alpha, neighborMass, want)
		}
	}
}

func TestMoveWorkloadNoNeighbors(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(5))
	w0 := testWorkload(s, rng, 5)
	cg, _ := newGuard(s, Options{Gamma: 0.002})
	d, _ := cg.Nominal.Design(context.Background(), w0)

	moved := cg.MoveWorkload(context.Background(), w0, nil, d, 1)
	if math.Abs(moved.TotalWeight()-w0.TotalWeight()) > 1e-9 {
		t.Fatal("no neighbors: moved workload should equal W0")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.Normalized()
	if o.Samples != 20 || o.Iterations != 5 || o.TopFraction != 0.2 {
		t.Errorf("defaults = %+v", o)
	}
	if o.LambdaSuccess != 5 || o.LambdaFailure != 0.5 || o.InitialAlpha != 1 {
		t.Errorf("lambda defaults = %+v", o)
	}
	// Invalid values fall back.
	o = Options{TopFraction: 2, LambdaSuccess: 0.5, LambdaFailure: 3}.Normalized()
	if o.TopFraction != 0.2 || o.LambdaSuccess != 5 || o.LambdaFailure != 0.5 {
		t.Errorf("sanitized = %+v", o)
	}
}

func TestOptionsValidate(t *testing.T) {
	valid := []Options{
		{}, // zero options are all-default, always valid
		{Gamma: 0.002, Samples: 40, Iterations: 10, Patience: 3},
		{TopFraction: 0.5, InitialAlpha: 2, LambdaSuccess: 5, LambdaFailure: 0.5},
		{InitialAlpha: AlphaMax}, // the top of the line-search clamp range is usable
		{Parallelism: -1},        // <= 0 means NumCPU
	}
	for i, o := range valid {
		if err := o.Validate(); err != nil {
			t.Errorf("valid options %d rejected: %v", i, err)
		}
	}
	invalid := []Options{
		{Gamma: -0.1},
		{Samples: -1},
		{Iterations: -2},
		{Patience: -1},
		{TopFraction: 1.5},
		{TopFraction: -0.2},
		{InitialAlpha: -1},
		{InitialAlpha: AlphaMin},     // at the floor the line search could never shrink
		{InitialAlpha: AlphaMax + 1}, // above the ceiling the clamp would silently override it
		{LambdaSuccess: 0.5},         // must grow alpha
		{LambdaSuccess: 1},
		{LambdaFailure: 3}, // must shrink alpha
		{LambdaFailure: -0.5},
	}
	for i, o := range invalid {
		if err := o.Validate(); err == nil {
			t.Errorf("invalid options %d (%+v) accepted", i, o)
		}
	}
}

func TestDeterminism(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(6))
	w := testWorkload(s, rng, 10)

	run := func() map[string]bool {
		cg, _ := newGuard(s, Options{Gamma: 0.003, Samples: 8, Iterations: 4, Seed: 99})
		d, err := cg.Design(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		return d.Keys()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic design size: %d vs %d", len(a), len(b))
	}
	for k := range a {
		if !b[k] {
			t.Fatalf("non-deterministic design: %s missing", k)
		}
	}
}
