package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"time"

	"cliffguard/internal/designer"
	"cliffguard/internal/evalcache"
	"cliffguard/internal/obs"
	"cliffguard/internal/workload"
)

// The parallel neighborhood evaluation engine. Every iteration of Algorithm 2
// scores the whole sampled Gamma-neighborhood twice (worst-case scan and
// worst-neighbor ranking); those n+1 workload evaluations are independent, so
// they fan out to a bounded worker pool. Determinism is preserved by
// construction: each workload's cost is accumulated sequentially inside one
// goroutine (fixed float summation order), results land in an index-aligned
// slice, and every reduction — max, stable sort, error selection — walks that
// slice in index order. A fixed seed therefore yields bit-identical designs
// and traces for any worker count.
//
// Instrumentation follows the same discipline: NeighborEvaluated events fire
// from worker goroutines (observers must tolerate concurrency; the event
// multiset per pass is deterministic even though arrival order is not), and
// pool occupancy gauges are plain atomic adds. With a nil observer and nil
// metrics the emitter fields are nil and every instrumentation site is a
// single pointer check.

// errWorkloadUncostable marks a single workload in which every query is
// outside the cost model's supported subset. It is internal: per-workload
// uncostability is tolerated (the workload is skipped), and only when the
// whole neighborhood is uncostable does it surface as
// ErrUncostableNeighborhood.
var errWorkloadUncostable = errors.New("core: workload has no costable queries")

// ErrUncostableNeighborhood is returned by Design/DesignWithTrace when no
// workload in the sampled Gamma-neighborhood has a single costable query.
// Earlier versions silently returned the initial design in this situation
// (the worst-case cost degenerated to -Inf and every candidate was rejected);
// an explicit error lets the caller distinguish "robustly designed" from
// "could not evaluate robustness at all".
var ErrUncostableNeighborhood = errors.New("core: no workload in the sampled neighborhood is costable under the cost model")

// emitter bundles the run's observer and metrics registry. Either or both
// may be nil; every method is nil-tolerant so call sites never branch. The
// zero emitter disables all instrumentation (this is what NeighborhoodCosts
// and the benchmarks use).
type emitter struct {
	obs obs.Observer
	met *obs.Metrics
}

func (em emitter) emit(ev obs.Event) {
	if em.obs != nil {
		em.obs.OnEvent(ev)
	}
}

// clock returns the current time iff a metrics registry will consume it;
// otherwise the zero time. Keeps clock reads off the uninstrumented hot path.
func (em emitter) clock() time.Time {
	if em.met == nil {
		return time.Time{}
	}
	return time.Now()
}

// evalResult is one workload's evaluation outcome: a cost, or an error
// (errWorkloadUncostable, ctx.Err(), or a hard cost-model failure).
type evalResult struct {
	cost float64
	err  error
}

// workers resolves Options.Parallelism to a pool size for n tasks:
// non-positive means runtime.NumCPU(), and the pool never exceeds the task
// count.
func (cg *CliffGuard) workers(n int) int {
	p := cg.Opts.Parallelism
	if p <= 0 {
		p = runtime.NumCPU()
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// evalNeighborhood evaluates f(W, D) for every workload under design d,
// fanning out to the worker pool. The returned slice is index-aligned with
// the input regardless of completion order. iter and phase tag the emitted
// NeighborEvaluated events (iter is -1 for the pre-loop initial scan).
// units, when non-nil, memoizes unit costs under d's fingerprint (the
// lock-striped cache is safe for the pool's concurrent workers); nil keeps
// the legacy call-the-model-every-time behavior.
func (cg *CliffGuard) evalNeighborhood(ctx context.Context, neighborhood []*workload.Workload, d *designer.Design, em emitter, iter int, phase string, units *evalcache.Cache) []evalResult {
	fp := d.Fingerprint()
	res := make([]evalResult, len(neighborhood))
	workers := cg.workers(len(neighborhood))
	if workers == 1 {
		for i, w := range neighborhood {
			res[i] = cg.evalOne(ctx, w, d, em, iter, phase, i, units, fp)
		}
		return res
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if em.met != nil {
					em.met.PoolQueueDepth.Add(-1)
					em.met.PoolWorkersBusy.Add(1)
				}
				res[i] = cg.evalOne(ctx, neighborhood[i], d, em, iter, phase, i, units, fp)
				if em.met != nil {
					em.met.PoolWorkersBusy.Add(-1)
				}
			}
		}()
	}
	for i := range neighborhood {
		if em.met != nil {
			em.met.PoolQueueDepth.Add(1)
		}
		idx <- i
	}
	close(idx)
	wg.Wait()
	return res
}

func (cg *CliffGuard) evalOne(ctx context.Context, w *workload.Workload, d *designer.Design, em emitter, iter int, phase string, index int, units *evalcache.Cache, fp uint64) evalResult {
	if err := ctx.Err(); err != nil {
		return evalResult{err: err}
	}
	start := em.clock()
	c, usedModel, err := cg.workloadCost(ctx, w, d, units, fp)
	if em.met != nil {
		em.met.NeighborsEvaluated.Inc()
		if usedModel {
			em.met.EvalSlowPath.Inc()
		} else {
			em.met.EvalFastPath.Inc()
		}
		em.met.EvalLatency.Observe(time.Since(start))
	}
	if em.obs != nil {
		// Uncostable workloads are an observable outcome; hard errors
		// (cancellation, cost-model failure) abort the run and are reported
		// through the error path, not the event stream.
		if err == nil {
			em.obs.OnEvent(obs.NeighborEvaluated{Iteration: iter, Phase: phase, Index: index, Cost: c})
		} else if errors.Is(err, errWorkloadUncostable) {
			em.obs.OnEvent(obs.NeighborEvaluated{Iteration: iter, Phase: phase, Index: index, Uncostable: true})
		}
	}
	return evalResult{cost: c, err: err}
}

// workloadCost evaluates f(W, D), normalized by total weight so that
// workloads with different total weights (the sampler adds mass) are
// comparable. Queries outside the cost model's supported subset are skipped;
// any other cost-model error (including ctx cancellation) aborts the
// evaluation.
//
// f(W, D) is linear in the item weights — a weighted mean of per-query unit
// costs — so with a warm units cache the whole evaluation is a dot product
// over memoized float64s, bit-identical to the uncached sum (same values,
// same summation order). usedModel reports whether any cost-model call was
// actually made (false = the evaluation was served entirely from the memo).
func (cg *CliffGuard) workloadCost(ctx context.Context, w *workload.Workload, d *designer.Design, units *evalcache.Cache, fp uint64) (cost float64, usedModel bool, err error) {
	var total, weight float64
	for _, it := range w.Items {
		c, unsupported, computed, err := cg.unitCost(ctx, it.Q, d, units, fp)
		if computed {
			usedModel = true
		}
		if err != nil {
			return 0, usedModel, err
		}
		if unsupported {
			continue
		}
		total += it.Weight * c
		weight += it.Weight
	}
	if weight == 0 {
		return 0, usedModel, errWorkloadUncostable
	}
	return total / weight, usedModel, nil
}

// unitCost returns the what-if cost of one query under design d (fingerprint
// fp), memoizing through units when non-nil. designer.ErrUnsupported is a
// deterministic verdict and is memoized alongside costs (unsupported=true);
// hard errors (cancellation, cost-model failure) are returned uncached so a
// transient failure can never poison the memo. computed reports whether the
// cost model was invoked.
func (cg *CliffGuard) unitCost(ctx context.Context, q *workload.Query, d *designer.Design, units *evalcache.Cache, fp uint64) (cost float64, unsupported, computed bool, err error) {
	if units != nil {
		if c, uns, ok := units.Lookup(q, fp); ok {
			return c, uns, false, nil
		}
	}
	c, err := cg.Cost.Cost(ctx, q, d)
	if err != nil {
		if errors.Is(err, designer.ErrUnsupported) {
			if units != nil {
				units.Store(q, fp, 0, true)
			}
			return 0, true, true, nil
		}
		return 0, false, true, err
	}
	if units != nil {
		units.Store(q, fp, c, false)
	}
	return c, false, true, nil
}

// NeighborhoodCosts evaluates f(W, D) for every workload in parallel and
// returns the index-aligned costs; workloads with no costable queries yield
// NaN. It exposes the evaluation engine that worstCase/worstNeighbors are
// built on (and is what BenchmarkNeighborhoodEval measures). It runs with
// instrumentation disabled: the zero emitter keeps this path at its
// pre-instrumentation cost.
func (cg *CliffGuard) NeighborhoodCosts(ctx context.Context, neighborhood []*workload.Workload, d *designer.Design) ([]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := cg.evalNeighborhood(ctx, neighborhood, d, emitter{}, -1, obs.PhaseInitial, nil)
	out := make([]float64, len(results))
	for i, r := range results {
		if r.err != nil {
			if errors.Is(r.err, errWorkloadUncostable) {
				out[i] = math.NaN()
				continue
			}
			return nil, r.err
		}
		out[i] = r.cost
	}
	return out, nil
}
