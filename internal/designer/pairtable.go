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

// PathCoster is an optional CostModel capability, implemented by the engine
// simulators: it exposes the per-path costs the engine's min-fold runs over,
// so that a caller needing every (query, structure) cell of a pool can cost
// each one directly instead of asking Cost(q, {s}) per cell. Like
// distance.Quadratic it is a fast path, not a second contract: Cost stays
// the paper's black-box what-if interface, the fallback for every other
// model, and the oracle the capability is tested against.
type PathCoster interface {
	CostModel
	// Paths returns q's cost under the empty design — exactly Cost(ctx, q,
	// nil), with the same errors, the same ctx check and the same single
	// cost-model call counted — and a function costing q through one
	// structure alone. via reports false when s cannot serve q (wrong type,
	// wrong table, not covering, no usable key); otherwise Cost(ctx, q,
	// NewDesign(s)) is min(base, cost) under the engines' strict-< fold.
	// Paths computes the query's per-query terms once for every via call;
	// via calls are not cost-model invocations.
	Paths(ctx context.Context, q *workload.Query) (base float64, via func(Structure) (float64, bool), err error)
}

// NewPairTable costs w's queries under the empty design and under each
// candidate alone. It follows the evaluation layer's error convention:
// ErrUnsupported is a verdict — an unsupported query drops out of the table
// and an unsupported pair is +Inf — while cancellation and every other
// cost-model error abort with a wrapped error. An empty pool costs nothing.
//
// A PathCoster fills each cell from its via function, which folds exactly
// as Cost does (a path lowers the base only when strictly cheaper), so the
// table is bit-identical to the black-box one at one cost-model call per
// query instead of one per cell.
func NewPairTable(ctx context.Context, cm CostModel, w *workload.Workload, candidates []Structure) (*PairTable, error) {
	t := &PairTable{Pool: NewDesign(candidates...).Structures}
	if len(t.Pool) == 0 {
		return t, nil
	}
	pc, direct := cm.(PathCoster)
	n := len(w.Items)
	t.Queries, t.Weights, t.Base = make([]*workload.Query, 0, n), make([]float64, 0, n), make([]float64, 0, n)
	var vias []func(Structure) (float64, bool)
	if direct {
		vias = make([]func(Structure) (float64, bool), 0, n)
	}
	for _, it := range w.Items {
		var c float64
		var via func(Structure) (float64, bool)
		var err error
		if direct {
			c, via, err = pc.Paths(ctx, it.Q)
		} else {
			c, err = cm.Cost(ctx, it.Q, nil)
		}
		if errors.Is(err, ErrUnsupported) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("designer: costing %s: %w", it.Q, err)
		}
		t.Queries = append(t.Queries, it.Q)
		t.Weights = append(t.Weights, it.Weight)
		t.Base = append(t.Base, c)
		if direct {
			vias = append(vias, via)
		}
	}
	t.Pair = make([][]float64, len(t.Pool))
	for si, s := range t.Pool {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("designer: pair table: %w", err)
		}
		row := make([]float64, len(t.Queries))
		if direct {
			for qi, via := range vias {
				c := t.Base[qi]
				if v, ok := via(s); ok && v < c {
					c = v
				}
				row[qi] = c
			}
			t.Pair[si] = row
			continue
		}
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
// member of idx. cur must already reflect sel (as MinInto leaves it), which
// is what keeps a member of sel from being picked again.
//
// The greedy is lazy (CELF): a candidate's score is re-computed only when it
// reaches the top of a max-heap of stale upper bounds. That is exact, not a
// heuristic: the gain is weighted facility location, so as cur falls no
// candidate's gain rises (each term w·(cur-c) is monotone in cur under IEEE
// subtraction, multiplication by a non-negative weight and addition), its
// size is fixed, and the budget only tightens. A fresh top therefore beats
// every true score below it, ties resolved by position in idx, and the lazy
// loop picks the eager loop's sequence, ties included. A candidate that no
// longer fits or whose gain is <= 0 never returns, so it is dropped for
// good. The heap lives in one slice, so a pick allocates nothing.
func (t *PairTable) Complete(idx, sel []int, cur []float64, used, budget int64) []int {
	// score returns si's benefit per byte under cur, or false when si cannot
	// be picked now (and so never again).
	score := func(si int) (float64, bool) {
		sz := t.Pool[si].SizeBytes()
		if used+sz > budget {
			return 0, false
		}
		var gain float64
		for qi, c := range t.Pair[si] {
			if c < cur[qi] {
				gain += t.Weights[qi] * (cur[qi] - c)
			}
		}
		if gain <= 0 {
			return 0, false
		}
		return gain / float64(max(sz, 1)), true
	}
	// A member of sel, or a duplicate in idx of an earlier pick, scores a
	// zero gain: cur is already at or below its costs.
	h := make(bounds, 0, len(idx))
	for pos, si := range idx {
		if sc, ok := score(si); ok {
			h = append(h, bound{score: sc, pos: int32(pos)})
		}
	}
	// Only candidates in the heap can be picked.
	sel = append(make([]int, 0, len(sel)+len(h)), sel...)
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	var picks int32 // a bound is fresh when scored after the latest pick
	for len(h) > 0 {
		top := &h[0]
		si := idx[top.pos]
		if top.picks != picks {
			sc, ok := score(si)
			if !ok {
				h.pop()
				continue
			}
			top.score, top.picks = sc, picks
			h.down(0)
			continue
		}
		t.MinInto(cur, si)
		used += t.Pool[si].SizeBytes()
		sel = append(sel, si)
		picks++
		h.pop()
	}
	return sel
}

// bound is one candidate's entry in Complete's heap: its score as of pick
// number picks (an upper bound on its current score) and its position in idx.
type bound struct {
	score float64
	pos   int32
	picks int32
}

// bounds is a binary max-heap ordered by score descending, then position
// ascending — the eager greedy's preference order.
type bounds []bound

func (h bounds) before(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	return h[i].pos < h[j].pos
}

func (h bounds) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h.before(r, l) {
			m = r
		}
		if !h.before(m, i) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// pop removes the top entry.
func (h *bounds) pop() {
	old := *h
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	h.down(0)
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
