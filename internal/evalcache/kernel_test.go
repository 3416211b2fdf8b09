package evalcache

import (
	"context"
	"errors"
	"math"
	"testing"

	"cliffguard/internal/designer"
	"cliffguard/internal/workload"
)

// scriptedCost is a deterministic cost model: cost by query ID, with
// per-query unsupported verdicts and one-shot hard failures. It counts
// every call.
type scriptedCost struct {
	unsupported map[*workload.Query]bool
	failOnce    map[*workload.Query]error
	calls       int
}

func (m *scriptedCost) Cost(_ context.Context, q *workload.Query, _ *designer.Design) (float64, error) {
	m.calls++
	if err := m.failOnce[q]; err != nil {
		delete(m.failOnce, q)
		return 0, err
	}
	if m.unsupported[q] {
		return 0, designer.ErrUnsupported
	}
	return 1/3.0 + float64(q.ID%97)*0.7, nil
}

func weighted(qs []*workload.Query) *workload.Workload {
	w := &workload.Workload{}
	for i, q := range qs {
		w.Add(q, 0.1+float64(i)*1.3)
	}
	return w
}

// TestWorkloadCostMemoBitIdentical: the memoized kernel, cold and fully
// warm, returns the exact float64 bits of the memo-less (nil) kernel.
func TestWorkloadCostMemoBitIdentical(t *testing.T) {
	ctx := context.Background()
	qs := testQueries(40)
	w := weighted(qs)
	d := designer.NewDesign()
	cm := &scriptedCost{unsupported: map[*workload.Query]bool{qs[3]: true}}

	var none *Cache
	want, computed, err := none.WorkloadCost(ctx, cm, w, d, d.Fingerprint())
	if err != nil || !computed {
		t.Fatalf("nil memo: err %v computed %v", err, computed)
	}
	memo := New()
	for pass := 0; pass < 2; pass++ {
		before := cm.calls
		got, computed, err := memo.WorkloadCost(ctx, cm, w, d, d.Fingerprint())
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("pass %d: memo cost %v, nil-memo cost %v", pass, got, want)
		}
		if warm := pass == 1; computed == warm || (warm && cm.calls != before) {
			t.Fatalf("pass %d: computed %v, %d model calls", pass, computed, cm.calls-before)
		}
	}
}

// TestUnsupportedVerdictMemoized: ErrUnsupported is stored like a cost, so
// the second evaluation never asks the model about that query again.
func TestUnsupportedVerdictMemoized(t *testing.T) {
	ctx := context.Background()
	qs := testQueries(2)
	d := designer.NewDesign()
	cm := &scriptedCost{unsupported: map[*workload.Query]bool{qs[0]: true}}
	memo := New()
	for i := 0; i < 2; i++ {
		c, uns, _, err := memo.UnitCost(ctx, cm, qs[0], d, d.Fingerprint())
		if err != nil || !uns || c != 0 {
			t.Fatalf("call %d: (%v, %v, %v)", i, c, uns, err)
		}
	}
	if cm.calls != 1 {
		t.Fatalf("%d model calls for a memoized verdict, want 1", cm.calls)
	}
	if _, uns, ok := memo.Lookup(qs[0], d.Fingerprint()); !ok || !uns {
		t.Fatal("unsupported verdict not in the memo")
	}
}

// TestHardErrorNeverMemoized: a failing cost-model call aborts the
// evaluation and leaves no entry behind, so the retry recomputes it.
func TestHardErrorNeverMemoized(t *testing.T) {
	ctx := context.Background()
	qs := testQueries(3)
	w := weighted(qs)
	d := designer.NewDesign()
	boom := errors.New("boom")
	cm := &scriptedCost{failOnce: map[*workload.Query]error{qs[1]: boom}}
	memo := New()
	if _, _, err := memo.WorkloadCost(ctx, cm, w, d, d.Fingerprint()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, _, ok := memo.Lookup(qs[1], d.Fingerprint()); ok {
		t.Fatal("hard error was memoized")
	}
	if memo.Len() != 1 {
		t.Fatalf("memo holds %d entries, want only the query before the failure", memo.Len())
	}
	if _, _, err := memo.WorkloadCost(ctx, cm, w, d, d.Fingerprint()); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if memo.Len() != len(qs) {
		t.Fatalf("memo holds %d entries after the retry, want %d", memo.Len(), len(qs))
	}
}

func TestAllUnsupportedIsUncostable(t *testing.T) {
	qs := testQueries(3)
	cm := &scriptedCost{unsupported: map[*workload.Query]bool{qs[0]: true, qs[1]: true, qs[2]: true}}
	d := designer.NewDesign()
	if _, _, err := New().WorkloadCost(context.Background(), cm, weighted(qs), d, d.Fingerprint()); !errors.Is(err, ErrUncostable) {
		t.Fatalf("err = %v, want ErrUncostable", err)
	}
}

func TestWorkloadCostHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cm := &scriptedCost{}
	d := designer.NewDesign()
	if _, _, err := New().WorkloadCost(ctx, cm, weighted(testQueries(2)), d, d.Fingerprint()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if cm.calls != 0 {
		t.Fatalf("%d model calls after cancellation", cm.calls)
	}
}

// TestWorst: uncostable workloads are skipped, the first hard error in
// index order wins, and an all-uncostable set is ErrUncostable.
func TestWorst(t *testing.T) {
	first, second := errors.New("first"), errors.New("second")
	cases := []struct {
		in   []Result
		want float64
		err  error
	}{
		{[]Result{{Cost: 2}, {Err: ErrUncostable}, {Cost: 5}, {Cost: 3}}, 5, nil},
		{[]Result{{Cost: 9}, {Err: ErrUncostable}, {Err: first}, {Cost: 1}, {Err: second}}, 0, first},
		{[]Result{{Err: ErrUncostable}, {Err: ErrUncostable}}, 0, ErrUncostable},
		{nil, 0, ErrUncostable},
	}
	for i, tc := range cases {
		got, err := Worst(tc.in)
		if !errors.Is(err, tc.err) || got != tc.want {
			t.Errorf("case %d: Worst = (%v, %v), want (%v, %v)", i, got, err, tc.want, tc.err)
		}
	}
}
