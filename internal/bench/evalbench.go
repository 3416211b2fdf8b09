package bench

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"time"

	"cliffguard/internal/core"
	"cliffguard/internal/designer"
	"cliffguard/internal/distance"
	"cliffguard/internal/obs"
	"cliffguard/internal/sample"
	"cliffguard/internal/vertsim"
	"cliffguard/internal/wlgen"
	"cliffguard/internal/workload"
)

// EVAL experiment shape: small enough for a CI gate, large enough that the
// legacy path's repeated full passes dominate.
const (
	evalBenchSamples    = 24
	evalBenchIterations = 8
)

// EvalResult is the EVAL experiment's output: the same fixed-seed robust
// design run twice — incremental evaluation on, then off
// (DisableEvalFastPath) — at parallelism 1 with identical seeds. The counter
// and equivalence columns are deterministic (they gate the BENCH_EVAL.json
// baseline); the wall-clock columns are informational.
type EvalResult struct {
	Workload   string
	Samples    int
	Iterations int // iterations actually run (trace length; both runs agree)

	// Deterministic counters (gated).
	FastCostCalls   uint64 // evaluation-layer Cost invocations, fast path on
	LegacyCostCalls uint64 // same, with DisableEvalFastPath
	CallReduction   float64
	FastPathEvals   uint64 // workload evaluations with zero cost-model calls (fast run)
	SlowPathEvals   uint64 // workload evaluations that hit the model (fast run)
	CacheHits       uint64 // evalcache hits (fast run)
	CacheMisses     uint64
	DesignsMatch    bool // final designs bit-identical
	TracesMatch     bool // per-iteration traces bit-identical
	EventsMatch     bool // full event streams bit-identical (p=1: raw order)

	// Wall-clock (informational, never gated).
	FastMs   float64
	LegacyMs float64
	Speedup  float64
}

// countingCost wraps the engine's cost model so that only evaluation-layer
// calls — the ones CliffGuard itself makes — are counted. The nominal
// designer keeps the raw engine handle, so its internal candidate-selection
// calls stay out of the tally (they are identical across both runs and would
// dilute the reduction the experiment isolates).
type countingCost struct {
	inner designer.CostModel
	calls atomic.Uint64
}

func (c *countingCost) Cost(ctx context.Context, q *workload.Query, d *designer.Design) (float64, error) {
	c.calls.Add(1)
	return c.inner.Cost(ctx, q, d)
}

// EvalBench runs the incremental-evaluation micro-experiment behind the PR 5
// fast path: one full robust design of the set's first month (the T1
// experiment's workload) with the unit-cost memo and pass replay on, one
// with DisableEvalFastPath, both at parallelism 1 with the same seed. It
// reports the evaluation-layer cost-model call counts, the fast/slow path
// split, and three equivalence bits — designs, traces, and the raw event
// streams must be bit-identical, so the baseline doubles as an end-to-end
// determinism check on real generated workloads.
func EvalBench(set *wlgen.Set, gamma float64, seed int64) (*EvalResult, error) {
	s := set.Config.Schema
	if len(set.Months) == 0 || set.Months[0].Len() == 0 {
		return nil, fmt.Errorf("bench: eval experiment needs a non-empty first month")
	}

	type runOut struct {
		design *designer.Design
		traces []core.Trace
		events []obs.Event
		met    *obs.Metrics
		calls  uint64
		ms     float64
	}
	run := func(disable bool) (*runOut, error) {
		// Fresh engine, designer, sampler, and workload clone per run:
		// neither run may inherit the other's memo or frozen vectors,
		// so cold-cache work is measured symmetrically.
		db := vertsim.Open(s)
		nominal := vertsim.NewDesigner(db, VerticaBudget)
		metric := distance.NewEuclidean(s.NumColumns())
		sampler := sample.New(metric, sample.NewMutator(s))
		counting := &countingCost{inner: db}
		met := obs.NewMetrics()
		rec := &obs.Recorder{}
		cg := core.New(nominal, counting, sampler, core.Options{
			Gamma:               gamma,
			Samples:             evalBenchSamples,
			Iterations:          evalBenchIterations,
			Seed:                seed,
			Parallelism:         1,
			DisableEvalFastPath: disable,
			Observer:            rec,
			Metrics:             met,
		})
		target := set.Months[0].Clone()
		start := time.Now()
		d, traces, err := cg.DesignWithTrace(context.Background(), target)
		if err != nil {
			return nil, err
		}
		return &runOut{
			design: d, traces: traces, events: rec.Events(), met: met,
			calls: counting.calls.Load(),
			ms:    float64(time.Since(start).Microseconds()) / 1000,
		}, nil
	}

	fast, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("bench: eval fast run: %w", err)
	}
	legacy, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("bench: eval legacy run: %w", err)
	}

	res := &EvalResult{
		Workload:        set.Config.Name,
		Samples:         evalBenchSamples,
		Iterations:      len(fast.traces),
		FastCostCalls:   fast.calls,
		LegacyCostCalls: legacy.calls,
		FastPathEvals:   fast.met.EvalFastPath.Load(),
		SlowPathEvals:   fast.met.EvalSlowPath.Load(),
		FastMs:          fast.ms,
		LegacyMs:        legacy.ms,
	}
	if cs, ok := fast.met.CacheSnapshots()["evalcache"]; ok {
		res.CacheHits, res.CacheMisses = cs.Hits, cs.Misses
	}
	if res.FastCostCalls > 0 {
		res.CallReduction = float64(res.LegacyCostCalls) / float64(res.FastCostCalls)
	}
	if res.FastMs > 0 {
		res.Speedup = res.LegacyMs / res.FastMs
	}
	res.DesignsMatch = fast.design.Fingerprint() == legacy.design.Fingerprint() &&
		fast.design.String() == legacy.design.String()
	res.TracesMatch = len(fast.traces) == len(legacy.traces)
	if res.TracesMatch {
		for i := range fast.traces {
			if fast.traces[i] != legacy.traces[i] {
				res.TracesMatch = false
				break
			}
		}
	}
	// At parallelism 1 both paths emit in index order, so the raw streams —
	// not just the per-pass multisets — must agree.
	res.EventsMatch = reflect.DeepEqual(fast.events, legacy.events)
	return res, nil
}
