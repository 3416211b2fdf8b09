package designer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
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

// eagerComplete is the eager greedy Complete replaced: every round rescans
// every member of idx and picks the best benefit per byte, ties keeping the
// earlier member. It is the oracle the lazy Complete must match exactly.
func eagerComplete(t *PairTable, idx, sel []int, cur []float64, used, budget int64) []int {
	sel = append([]int(nil), sel...)
	taken := make([]bool, len(t.Pool))
	for _, si := range sel {
		taken[si] = true
	}
	for {
		best, bestScore := -1, 0.0
		for _, si := range idx {
			if taken[si] {
				continue
			}
			sz := t.Pool[si].SizeBytes()
			if used+sz > budget {
				continue
			}
			var gain float64
			for qi, c := range t.Pair[si] {
				if c < cur[qi] {
					gain += t.Weights[qi] * (cur[qi] - c)
				}
			}
			if gain <= 0 {
				continue
			}
			if score := gain / float64(max(sz, 1)); best < 0 || score > bestScore {
				best, bestScore = si, score
			}
		}
		if best < 0 {
			return sel
		}
		taken[best] = true
		t.MinInto(cur, best)
		used += t.Pool[best].SizeBytes()
		sel = append(sel, best)
	}
}

// randomTable draws a small pair table with integer-valued costs, weights
// and sizes, so that equal scores — and with them the tie rule — are common.
// Sizes include 0, weights include 0, some pairs are +Inf (unsupported) and
// many are no better than the base (no gain).
func randomTable(rng *rand.Rand) *PairTable {
	nPool, nQ := rng.Intn(14), 1+rng.Intn(8)
	t := &PairTable{Weights: make([]float64, nQ), Base: make([]float64, nQ)}
	for qi := range t.Base {
		t.Weights[qi] = float64(rng.Intn(4))
		t.Base[qi] = float64(rng.Intn(12))
	}
	for si := 0; si < nPool; si++ {
		t.Pool = append(t.Pool, &fakeStructure{fmt.Sprint("s", si), int64(rng.Intn(6))})
		row := make([]float64, nQ)
		for qi := range row {
			switch rng.Intn(5) {
			case 0:
				row[qi] = math.Inf(1)
			case 1:
				row[qi] = t.Base[qi] + float64(rng.Intn(3))
			default:
				row[qi] = float64(rng.Intn(12))
			}
		}
		t.Pair = append(t.Pair, row)
	}
	return t
}

// TestCompleteMatchesEager: over thousands of random tables, the lazy
// Complete picks exactly the eager loop's sequence and leaves exactly its
// per-query costs, from pre-seeded selections, over partial, permuted and
// duplicated idx, and under budgets from zero to ample.
func TestCompleteMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 20000; trial++ {
		tab := randomTable(rng)
		n := len(tab.Pool)
		var idx []int
		for _, si := range rng.Perm(n) {
			if rng.Intn(4) > 0 {
				idx = append(idx, si)
			}
		}
		if n > 0 && rng.Intn(5) == 0 {
			idx = append(idx, idx...) // duplicates
		}
		if rng.Intn(3) == 0 {
			sort.Ints(idx)
		}
		cur := append([]float64(nil), tab.Base...)
		var sel []int
		var used int64
		for si := 0; si < n; si++ {
			if rng.Intn(6) == 0 {
				sel = append(sel, si)
				tab.MinInto(cur, si)
				used += tab.Pool[si].SizeBytes()
			}
		}
		budget := used + int64(rng.Intn(12))
		if rng.Intn(4) == 0 {
			budget = used // nothing more fits unless it is free
		}
		lazyCur, eagerCur := append([]float64(nil), cur...), append([]float64(nil), cur...)
		seed := append([]int(nil), sel...)
		got := tab.Complete(idx, sel, lazyCur, used, budget)
		want := eagerComplete(tab, idx, sel, eagerCur, used, budget)
		if !slices.Equal(got, want) || !slices.Equal(lazyCur, eagerCur) || !slices.Equal(sel, seed) {
			t.Fatalf("trial %d: idx %v sel %v used %d budget %d\nlazy  %v cur %v\neager %v cur %v",
				trial, idx, seed, used, budget, got, lazyCur, want, eagerCur)
		}
	}
}

// completeTable is a table where every structure serves one query of its
// own: with budget b, Complete picks exactly b of the n structures.
func completeTable(n int) *PairTable {
	t := &PairTable{Weights: make([]float64, n), Base: make([]float64, n)}
	for i := 0; i < n; i++ {
		t.Weights[i], t.Base[i] = 1, 100
		row := make([]float64, n)
		for qi := range row {
			row[qi] = 100
		}
		row[i] = float64(i % 50)
		t.Pool = append(t.Pool, &fakeStructure{fmt.Sprint("s", i), 1})
		t.Pair = append(t.Pair, row)
	}
	return t
}

// TestCompleteAllocsIndependentOfPicks gates the in-place heap: Complete
// allocates the same few buffers whether it makes one pick or two hundred.
func TestCompleteAllocsIndependentOfPicks(t *testing.T) {
	tab := completeTable(200)
	all := make([]int, len(tab.Pool))
	for i := range all {
		all[i] = i
	}
	allocs := func(budget int64) float64 {
		cur := make([]float64, len(tab.Base))
		return testing.AllocsPerRun(20, func() {
			copy(cur, tab.Base)
			if sel := tab.Complete(all, nil, cur, 0, budget); int64(len(sel)) != budget {
				t.Fatalf("budget %d: %d picks", budget, len(sel))
			}
		})
	}
	if one, many := allocs(1), allocs(200); one != many {
		t.Fatalf("Complete allocates %v times for 1 pick, %v for 200", one, many)
	}
}

// BenchmarkComplete times one greedy completion over a 640-structure,
// 300-query table where each structure serves a few queries, under a budget
// that admits about forty picks.
func BenchmarkComplete(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const nPool, nQ = 640, 300
	tab := &PairTable{Weights: make([]float64, nQ), Base: make([]float64, nQ)}
	for qi := range tab.Base {
		tab.Weights[qi] = float64(1 + rng.Intn(20))
		tab.Base[qi] = 1000 + 1000*rng.Float64()
	}
	for si := 0; si < nPool; si++ {
		row := append([]float64(nil), tab.Base...)
		for k := 0; k < 1+rng.Intn(10); k++ {
			row[rng.Intn(nQ)] = 30 + 500*rng.Float64()
		}
		tab.Pool = append(tab.Pool, &fakeStructure{fmt.Sprint("s", si), int64(1 + rng.Intn(10))})
		tab.Pair = append(tab.Pair, row)
	}
	all := make([]int, nPool)
	for i := range all {
		all[i] = i
	}
	cur := make([]float64, nQ)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(cur, tab.Base)
		completeSink = tab.Complete(all, nil, cur, 0, 220)
	}
}

var completeSink []int
