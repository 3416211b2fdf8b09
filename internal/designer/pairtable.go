package designer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"cliffguard/internal/workload"
)

// CandidateProvider is implemented by the engines' nominal designers: it
// exposes the candidate structure pool a workload induces. The selection
// designers (AutoAdmin, ILP, the local-search baselines) and the designable
// filter read their pools through it.
type CandidateProvider interface {
	Candidates(w *workload.Workload) []Structure
}

// PairTable is the what-if lowering every selection designer works from:
// each query costed under the empty design (Base) and under each pool
// structure alone (Pair[s][q]). The engines' costs are min-compositional — a
// query costs the minimum over its access paths — so the table settles the
// cost of every subset of the pool without further cost-model calls.
type PairTable struct {
	// Pool is the candidate pool, deduplicated by key in first-seen order.
	Pool []Structure
	// Queries and Weights are the workload's costable queries, in workload
	// order.
	Queries []*workload.Query
	Weights []float64
	// Base[q] is query q's cost under the empty design.
	Base []float64
	// Pair[s][q] is query q's cost with Pool[s] alone; +Inf marks a pair the
	// engine cannot cost.
	Pair [][]float64
}

// NewPairTable costs w's queries under the empty design and under each
// candidate alone. It follows the evaluation layer's error convention:
// ErrUnsupported is a verdict — an unsupported query drops out of the table
// and an unsupported pair is +Inf — while cancellation and every other
// cost-model error abort with a wrapped error. An empty pool costs nothing.
func NewPairTable(ctx context.Context, cm CostModel, w *workload.Workload, candidates []Structure) (*PairTable, error) {
	t := &PairTable{Pool: NewDesign(candidates...).Structures}
	if len(t.Pool) == 0 {
		return t, nil
	}
	n := len(w.Items)
	t.Queries, t.Weights, t.Base = make([]*workload.Query, 0, n), make([]float64, 0, n), make([]float64, 0, n)
	for _, it := range w.Items {
		c, err := cm.Cost(ctx, it.Q, nil)
		if errors.Is(err, ErrUnsupported) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("designer: costing %s: %w", it.Q, err)
		}
		t.Queries = append(t.Queries, it.Q)
		t.Weights = append(t.Weights, it.Weight)
		t.Base = append(t.Base, c)
	}
	t.Pair = make([][]float64, len(t.Pool))
	for si, s := range t.Pool {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("designer: pair table: %w", err)
		}
		row := make([]float64, len(t.Queries))
		d := NewDesign(s)
		for qi, q := range t.Queries {
			c, err := cm.Cost(ctx, q, d)
			if errors.Is(err, ErrUnsupported) {
				c = math.Inf(1)
			} else if err != nil {
				return nil, fmt.Errorf("designer: costing %s under %s: %w", q, s.Key(), err)
			}
			row[qi] = c
		}
		t.Pair[si] = row
	}
	return t, nil
}

// MinInto lowers the per-query costs cur to what Pool[si] offers.
func (t *PairTable) MinInto(cur []float64, si int) {
	for qi, c := range t.Pair[si] {
		if c < cur[qi] {
			cur[qi] = c
		}
	}
}

// Complete extends the selection sel — whose per-query costs are cur and
// whose footprint is used — with members of idx, greedily by benefit per
// byte, until the budget or the gains run out. It lowers cur in place and
// returns the extended selection as a new slice. Ties keep the earlier
// member of idx.
func (t *PairTable) Complete(idx, sel []int, cur []float64, used, budget int64) []int {
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

// Top caps idx (ascending pool indices) at n members: those with the
// highest standalone weighted benefit per byte survive, ties keeping the
// earlier index, returned in ascending order. A negative n, or an idx that
// already fits, returns idx unchanged.
func (t *PairTable) Top(idx []int, n int) []int {
	if n < 0 || len(idx) <= n {
		return idx
	}
	score := make(map[int]float64, len(idx))
	for _, si := range idx {
		var total float64
		for qi, b := range t.Base {
			if g := b - t.Pair[si][qi]; g > 0 {
				total += t.Weights[qi] * g
			}
		}
		score[si] = total / float64(max(t.Pool[si].SizeBytes(), 1))
	}
	out := append([]int(nil), idx...)
	sort.SliceStable(out, func(i, j int) bool { return score[out[i]] > score[out[j]] })
	out = out[:n]
	sort.Ints(out)
	return out
}

// Design returns the design holding the selected pool structures, in
// selection order.
func (t *PairTable) Design(sel []int) *Design {
	d := NewDesign()
	for _, si := range sel {
		d.Structures = append(d.Structures, t.Pool[si])
	}
	return d
}

// Designable reports whether some ideal design — budget-unconstrained and
// tailored to q alone — speeds q up by at least factor. Queries the engine
// cannot cost, or that no candidate helps, are not designable.
func Designable(ctx context.Context, cm CostModel, provider CandidateProvider, q *workload.Query, factor float64) bool {
	base, err := cm.Cost(ctx, q, nil)
	if err != nil {
		return false
	}
	single := workload.New(q)
	cands := provider.Candidates(single)
	if len(cands) == 0 {
		return false
	}
	ideal, err := GreedySelect(ctx, cm, single, cands, 1<<62)
	if err != nil {
		return false
	}
	best, err := cm.Cost(ctx, q, ideal)
	if err != nil || best <= 0 {
		return false
	}
	return base/best >= factor
}
