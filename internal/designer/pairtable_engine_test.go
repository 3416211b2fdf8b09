package designer_test

import (
	"context"
	"reflect"
	"testing"

	"cliffguard/internal/datagen"
	"cliffguard/internal/designer"
	"cliffguard/internal/designer/designertest"
	"cliffguard/internal/engine"
	"cliffguard/internal/workload"
)

// opaque hides a cost model's PathCoster capability, so NewPairTable takes
// its black-box loop.
type opaque struct{ inner designer.CostModel }

func (o opaque) Cost(ctx context.Context, q *workload.Query, d *designer.Design) (float64, error) {
	return o.inner.Cost(ctx, q, d)
}

// TestNewPairTableDirectMatchesBlackBox: for every engine, the pair table
// filled from Paths is reflect.DeepEqual to the one filled by one Cost call
// per cell, over a workload with unsupported queries and the engine's own
// candidate pool.
func TestNewPairTableDirectMatchesBlackBox(t *testing.T) {
	s := datagen.Warehouse(1)
	for _, kind := range []string{engine.KindVertica, engine.KindRowStore, engine.KindApprox} {
		eng, err := engine.Open(engine.Spec{Kind: kind, Schema: s})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := eng.(designer.PathCoster); !ok {
			t.Fatalf("%s: engine does not forward Paths", kind)
		}
		w := &workload.Workload{}
		for i, q := range designertest.Queries(s, 2, 400) {
			w.Add(q, float64(1+i%7))
		}
		pool := eng.NominalDesigner(1 << 40).(designer.CandidateProvider).Candidates(w)
		ctx := context.Background()
		direct, err := designer.NewPairTable(ctx, eng, w, pool)
		if err != nil {
			t.Fatal(err)
		}
		blackBox, err := designer.NewPairTable(ctx, opaque{eng}, w, pool)
		if err != nil {
			t.Fatal(err)
		}
		if len(direct.Queries) == w.Len() || len(direct.Pool) == 0 {
			t.Fatalf("%s: %d of %d queries kept over a %d-structure pool, want some dropped as unsupported",
				kind, len(direct.Queries), w.Len(), len(direct.Pool))
		}
		if !reflect.DeepEqual(direct, blackBox) {
			t.Fatalf("%s: direct pair table differs from the black-box one", kind)
		}
	}
}
