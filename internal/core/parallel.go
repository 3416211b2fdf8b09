package core

import (
	"context"
	"errors"
	"math"
	"time"

	"cliffguard/internal/designer"
	"cliffguard/internal/evalcache"
	"cliffguard/internal/fanout"
	"cliffguard/internal/obs"
	"cliffguard/internal/workload"
)

// The parallel neighborhood evaluation engine. Every iteration of Algorithm 2
// scores the whole sampled Gamma-neighborhood twice (worst-case scan and
// worst-neighbor ranking); those n+1 workload evaluations are independent, so
// they fan out to the shared worker pool (fanout.Each). Determinism is
// preserved by construction: each workload's cost is accumulated sequentially
// inside one goroutine (fixed float summation order), results land in an
// index-aligned slice, and every reduction — max, stable sort, error
// selection — walks that slice in index order. A fixed seed therefore yields bit-identical designs
// and traces for any worker count.
//
// Instrumentation follows the same discipline: NeighborEvaluated events fire
// from worker goroutines (observers must tolerate concurrency; the event
// multiset per pass is deterministic even though arrival order is not), and
// pool occupancy gauges are plain atomic adds. With a nil observer and nil
// metrics the emitter fields are nil and every instrumentation site is a
// single pointer check.

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

// evalNeighborhood evaluates f(W, D) for every workload under design d,
// fanning out to the worker pool. The returned slice is index-aligned with
// the input regardless of completion order. iter and phase tag the emitted
// NeighborEvaluated events (iter is -1 for the pre-loop initial scan).
// units, when non-nil, memoizes unit costs under d's fingerprint (the
// lock-striped cache is safe for the pool's concurrent workers); nil keeps
// the legacy call-the-model-every-time behavior.
func (cg *CliffGuard) evalNeighborhood(ctx context.Context, neighborhood []*workload.Workload, d *designer.Design, em emitter, iter int, phase string, units *evalcache.Cache) []evalcache.Result {
	fp := d.Fingerprint()
	res := make([]evalcache.Result, len(neighborhood))
	if em.met != nil {
		em.met.PoolQueueDepth.Add(int64(len(neighborhood)))
	}
	fanout.Each(cg.Opts.Parallelism, len(neighborhood), func(i int) {
		if em.met != nil {
			em.met.PoolQueueDepth.Add(-1)
			em.met.PoolWorkersBusy.Add(1)
			defer em.met.PoolWorkersBusy.Add(-1)
		}
		res[i] = cg.evalOne(ctx, neighborhood[i], d, em, iter, phase, i, units, fp)
	})
	return res
}

func (cg *CliffGuard) evalOne(ctx context.Context, w *workload.Workload, d *designer.Design, em emitter, iter int, phase string, index int, units *evalcache.Cache, fp uint64) evalcache.Result {
	// A workload the pool reaches after cancellation is not evaluated, so it
	// does not count in the evaluation metrics either.
	if err := ctx.Err(); err != nil {
		return evalcache.Result{Err: err}
	}
	start := em.clock()
	c, usedModel, err := units.WorkloadCost(ctx, cg.Cost, w, d, fp)
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
		} else if errors.Is(err, evalcache.ErrUncostable) {
			em.obs.OnEvent(obs.NeighborEvaluated{Iteration: iter, Phase: phase, Index: index, Uncostable: true})
		}
	}
	return evalcache.Result{Cost: c, Err: err}
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
		if r.Err != nil {
			if errors.Is(r.Err, evalcache.ErrUncostable) {
				out[i] = math.NaN()
				continue
			}
			return nil, r.Err
		}
		out[i] = r.Cost
	}
	return out, nil
}
