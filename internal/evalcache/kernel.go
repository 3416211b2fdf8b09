package evalcache

import (
	"context"
	"errors"
	"math"

	"cliffguard/internal/designer"
	"cliffguard/internal/workload"
)

// ErrUncostable marks a workload in which every query is outside the cost
// model's supported subset. Per-workload uncostability is tolerated (Worst
// skips the workload); callers turn an all-uncostable set into their own
// set-level error.
var ErrUncostable = errors.New("evalcache: workload has no costable queries")

// Result is one workload's evaluation outcome: a cost, or an error
// (ErrUncostable, ctx.Err(), or a hard cost-model failure).
type Result struct {
	Cost float64
	Err  error
}

// UnitCost returns the what-if cost of one query under design d
// (fingerprint fp), memoizing through c; a nil c calls the model every time.
// designer.ErrUnsupported is a deterministic verdict and is memoized
// alongside costs (unsupported=true); hard errors (cancellation, cost-model
// failure) are returned uncached so a transient failure can never poison the
// memo. computed reports whether the cost model was invoked.
func (c *Cache) UnitCost(ctx context.Context, cm designer.CostModel, q *workload.Query, d *designer.Design, fp uint64) (cost float64, unsupported, computed bool, err error) {
	if c != nil {
		if cost, unsupported, ok := c.Lookup(q, fp); ok {
			return cost, unsupported, false, nil
		}
	}
	cost, err = cm.Cost(ctx, q, d)
	if err != nil {
		if !errors.Is(err, designer.ErrUnsupported) {
			return 0, false, true, err
		}
		cost, unsupported = 0, true
	}
	if c != nil {
		c.Store(q, fp, cost, unsupported)
	}
	return cost, unsupported, true, nil
}

// WorkloadCost evaluates f(W, D) — the paper's weighted what-if cost —
// normalized by costable weight so that workloads with different total
// weights (the sampler adds mass) are comparable. Unsupported queries are
// skipped; a workload with no costable query yields ErrUncostable; any other
// cost-model error (including ctx cancellation) aborts the evaluation.
//
// Because f is a weighted mean of unit costs, an evaluation served from the
// memo is bit-identical to the uncached one: the same float64s, summed in
// the same (item) order. computed reports whether any cost-model call was
// made (false = served entirely from the memo).
func (c *Cache) WorkloadCost(ctx context.Context, cm designer.CostModel, w *workload.Workload, d *designer.Design, fp uint64) (cost float64, computed bool, err error) {
	if err := ctx.Err(); err != nil {
		return 0, false, err
	}
	var total, weight float64
	for _, it := range w.Items {
		uc, unsupported, called, err := c.UnitCost(ctx, cm, it.Q, d, fp)
		computed = computed || called
		if err != nil {
			return 0, computed, err
		}
		if unsupported {
			continue
		}
		total += it.Weight * uc
		weight += it.Weight
	}
	if weight == 0 {
		return 0, computed, ErrUncostable
	}
	return total / weight, computed, nil
}

// Worst is the max reduction over one scored set: the worst-case cost
// across its workloads. Uncostable workloads are skipped; if every workload
// is uncostable the result is ErrUncostable rather than a degenerate -Inf.
// The reduction walks results in index order and the lowest-index hard
// error wins, so the outcome is independent of worker scheduling.
func Worst(results []Result) (float64, error) {
	worst := math.Inf(-1)
	costable := false
	for _, r := range results {
		if r.Err != nil {
			if errors.Is(r.Err, ErrUncostable) {
				continue
			}
			return 0, r.Err
		}
		costable = true
		if r.Cost > worst {
			worst = r.Cost
		}
	}
	if !costable {
		return 0, ErrUncostable
	}
	return worst, nil
}
