package designer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"cliffguard/internal/workload"
)

// costFunc adapts a function to CostModel.
type costFunc func(ctx context.Context, q *workload.Query, d *Design) (float64, error)

func (f costFunc) Cost(ctx context.Context, q *workload.Query, d *Design) (float64, error) {
	return f(ctx, q, d)
}

var errHard = errors.New("hard cost-model failure")

// scripted costs query ID id at 100-id under the empty design and at id
// under any structure, except where fail names an error for "id" (base) or
// "key/id" (pair).
func scripted(fail map[string]error) CostModel {
	return costFunc(func(ctx context.Context, q *workload.Query, d *Design) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		key := fmt.Sprint(q.ID)
		if d.Len() > 0 {
			key = d.Structures[0].Key() + "/" + key
		}
		if err := fail[key]; err != nil {
			return 0, err
		}
		if d.Len() > 0 {
			return float64(q.ID), nil
		}
		return float64(100 - q.ID), nil
	})
}

func TestNewPairTable(t *testing.T) {
	a, b := &fakeStructure{"a", 10}, &fakeStructure{"b", 20}
	q1, q2, q3 := mkQuery(1, 0), mkQuery(2, 1), mkQuery(3, 2)
	w := &workload.Workload{}
	w.Add(q1, 1)
	w.Add(q2, 2)
	w.Add(q3, 3)
	cm := scripted(map[string]error{
		"2":   fmt.Errorf("wrapped: %w", ErrUnsupported),
		"b/3": ErrUnsupported,
	})
	tab, err := NewPairTable(context.Background(), cm, w,
		[]Structure{b, nil, a, &fakeStructure{"b", 99}, a})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Pool) != 2 || tab.Pool[0] != b || tab.Pool[1] != a {
		t.Fatalf("pool = %v, want [b a] in first-seen order", tab.Pool)
	}
	if len(tab.Queries) != 2 || tab.Queries[0] != q1 || tab.Queries[1] != q3 {
		t.Fatalf("queries = %v, want the unsupported q2 dropped", tab.Queries)
	}
	if tab.Weights[0] != 1 || tab.Weights[1] != 3 || tab.Base[0] != 99 || tab.Base[1] != 97 {
		t.Fatalf("weights %v base %v", tab.Weights, tab.Base)
	}
	if tab.Pair[0][0] != 1 || !math.IsInf(tab.Pair[0][1], 1) {
		t.Fatalf("pair[b] = %v, want [1 +Inf]", tab.Pair[0])
	}
	if tab.Pair[1][0] != 1 || tab.Pair[1][1] != 3 {
		t.Fatalf("pair[a] = %v, want [1 3]", tab.Pair[1])
	}

	// Every non-verdict error aborts, wrapped.
	for name, fail := range map[string]map[string]error{
		"hard base": {"3": errHard},
		"hard pair": {"a/1": errHard},
	} {
		if _, err := NewPairTable(context.Background(), scripted(fail), w, []Structure{a}); !errors.Is(err, errHard) {
			t.Errorf("%s: err = %v, want it to wrap the cost-model error", name, err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewPairTable(ctx, scripted(nil), w, []Structure{a}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx: err = %v, want context.Canceled", err)
	}

	// An empty pool makes no cost-model calls.
	calls := 0
	counting := costFunc(func(context.Context, *workload.Query, *Design) (float64, error) {
		calls++
		return 1, nil
	})
	if tab, err := NewPairTable(context.Background(), counting, w, []Structure{nil}); err != nil || len(tab.Pool) != 0 || calls != 0 {
		t.Errorf("empty pool: %d calls, pool %v, err %v", calls, tab.Pool, err)
	}
}

func TestPairTableTopAndComplete(t *testing.T) {
	// Base 100 for every query; each structure serves one query.
	tab := &PairTable{
		Pool: []Structure{
			&fakeStructure{"s0", 10}, // benefit 50 -> 5/byte
			&fakeStructure{"s1", 10}, // benefit 90 -> 9/byte
			&fakeStructure{"s2", 20}, // benefit 100 -> 5/byte (ties s0)
			&fakeStructure{"s3", 0},  // no benefit
		},
		Weights: []float64{1, 1, 1},
		Base:    []float64{100, 100, 100},
		Pair: [][]float64{
			{50, 100, 100},
			{100, 10, 100},
			{100, 100, 0},
			{100, 100, 100},
		},
	}
	all := []int{0, 1, 2, 3}
	if got := tab.Top(all, 2); fmt.Sprint(got) != "[0 1]" {
		t.Errorf("Top(2) = %v, want [0 1] (the s0/s2 tie keeps the earlier index)", got)
	}
	if got := tab.Top(all, -1); fmt.Sprint(got) != fmt.Sprint(all) {
		t.Errorf("Top(-1) = %v, want all", got)
	}

	cur := append([]float64(nil), tab.Base...)
	sel := tab.Complete(all, nil, cur, 0, 30)
	if fmt.Sprint(sel) != "[1 0]" || fmt.Sprint(cur) != "[50 10 100]" {
		t.Errorf("Complete = %v, cur %v; want [1 0] with cur [50 10 100]", sel, cur)
	}
	if got := tab.Design(sel).String(); got != NewDesign(tab.Pool[1], tab.Pool[0]).String() {
		t.Errorf("Design = %s", got)
	}

	// A seed is kept, and its footprint counts against the budget.
	seed := []int{2}
	cur = []float64{100, 100, 0}
	if sel := tab.Complete(all, seed, cur, 20, 30); fmt.Sprint(sel) != "[2 1]" || fmt.Sprint(seed) != "[2]" {
		t.Errorf("seeded Complete = %v (seed now %v), want [2 1] with the seed untouched", sel, seed)
	}
}
