// Command e2ebench is the repository benchmark: it drives CliffGuard's
// layers through their public functions on three workloads and prints one
// JSON result line. See README.md for the workloads, the metrics, and which
// layer metric should move which end-to-end metric.
//
//	e2ebench --workload batch-r1-vertica --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run. With
// --trace 1 it measures an untraced half and then a traced half of --seconds,
// prints the per-layer metrics of the traced half plus the tracing overhead
// (the traced half's time per op over the untraced half's), and writes the
// traced half's spans to .bench_build/spans/. It exits 1 when an output check
// fails and 2 when the benchmark cannot run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cliffguard/internal/obs"
)

// runner is one prepared workload: run measures it for about seconds,
// traced when tr is non-nil, reporting program counters into met.
type runner interface {
	run(ctx context.Context, seconds float64, tr *tracer, met *obs.Metrics) (*measure, error)
}

type workloadDef struct {
	name  string
	setup func(r *r1, seed int64) (runner, error)
}

var workloads = []workloadDef{
	{"batch-r1-vertica", setupBatch},
	{"online-r1-rowstore", setupOnline},
	{"served-r1-mixed", setupServed},
}

// setupRepeats is how many times setup runs; setup_s is their median.
const setupRepeats = 3

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := benchmark(*def, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(2)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func benchmark(def workloadDef, seed int64, seconds float64, traced bool) (*result, error) {
	var run runner
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		r, err := generateR1()
		if err != nil {
			return nil, err
		}
		if run, err = def.setup(r, seed); err != nil {
			return nil, fmt.Errorf("setting up %s: %w", def.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	ctx := context.Background()

	if !traced {
		m, err := run.run(ctx, seconds, nil, obs.NewMetrics())
		if err != nil {
			return nil, err
		}
		m.report(os.Stderr, def.name)
		return m.result(endToEnd(m, quantile(setups, 0.5))), nil
	}

	plain, err := run.run(ctx, seconds/2, nil, obs.NewMetrics())
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	m, err := run.run(ctx, seconds/2, tr, obs.NewMetrics())
	if err != nil {
		return nil, err
	}
	m.layer["obs.trace_overhead_frac"] = ratio(m.elapsed*plain.units, plain.elapsed*m.units) - 1
	m.attempted += plain.attempted
	m.failed += plain.failed
	m.errors = append(plain.errors, m.errors...)
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", def.name, seed))
	if err := tr.writeJSONL(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	m.report(os.Stderr, def.name)
	fmt.Fprintf(os.Stderr, "spans: %s\n", path)
	metrics := map[string]metricValue{}
	for _, l := range perLayer {
		metrics[l.name] = metricValue{m.layer[l.name], l.unit}
	}
	return m.result(metrics), nil
}

// measure is one timed region's raw outcome.
type measure struct {
	elapsed    float64   // seconds in the timed region
	units      float64   // throughput units: designs, observed queries, sessions
	rates      []float64 // throughput of each pass, replay or block of sessions
	lat        []float64 // per-operation latencies (s): designs, re-designs, sessions
	allocUnits float64   // divisor of alloc_mb_per_op
	allocMB    float64
	heapMB     float64 // live heap after a forced GC (0 until measured)
	futureMs   float64

	attempted, failed int
	errors            []string

	layer map[string]float64 // per-layer metrics of a traced run

	mem0 runtime.MemStats
}

func (m *measure) beginTimed() { runtime.ReadMemStats(&m.mem0) }

// fail counts a failed check and keeps the first messages for the report.
func (m *measure) fail(format string, args ...any) {
	m.failed++
	if len(m.errors) < 20 {
		m.errors = append(m.errors, fmt.Sprintf(format, args...))
	}
}

// finishTimed records the allocations of the timed region and, unless the
// workload took its own heap checkpoint, the live heap at its end.
func (m *measure) finishTimed() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.allocMB = float64(ms.TotalAlloc-m.mem0.TotalAlloc) / 1e6
	if m.heapMB == 0 {
		m.heapMB = liveHeapMB()
	}
}

func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func (m *measure) result(metrics map[string]metricValue) *result {
	return &result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   metrics,
	}
}

// report prints a human-readable summary and every failed check.
func (m *measure) report(w *os.File, name string) {
	fmt.Fprintf(w, "%s: %d ops in %.3fs, %d checks attempted, %d failed (error_frac %.4f)\n",
		name, len(m.lat), m.elapsed, m.attempted, m.failed, float64(m.failed)/math.Max(1, float64(m.attempted)))
	for _, e := range m.errors {
		fmt.Fprintf(w, "  FAIL %s\n", e)
	}
	keys := make([]string, 0, len(m.layer))
	for k := range m.layer {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-32s %.6g\n", k, m.layer[k])
	}
}

type metricDef struct{ name, unit string }

// endToEnd maps a measure to the end-to-end metrics. One op is a design
// (batch), a re-design (online) or a session (served); the throughput unit
// is a design, an observed query or a session; alloc_mb_per_op is per
// design, per 1k observed queries or per session. Throughput is the median
// over passes (batch), replays (online) or blocks of consecutive session
// completions (served), so a stall of the shared machine during one of them
// does not move it.
func endToEnd(m *measure, setup float64) map[string]metricValue {
	return map[string]metricValue{
		"setup_s":          {setup, "s"},
		"throughput_per_s": {quantile(m.rates, 0.5), "1/s"},
		"latency_p50_s":    {quantile(m.lat, 0.5), "s"},
		"latency_p90_s":    {quantile(m.lat, 0.9), "s"},
		"alloc_mb_per_op":  {m.allocMB / m.allocUnits, "MB"},
		"heap_mb":          {m.heapMB, "MB"},
		"future_avg_ms":    {m.futureMs, "ms"},
	}
}

// perLayer lists every per-layer metric; a workload that does not exercise
// a layer reports 0 for it. Counts and busy times are per op (design,
// re-design or session), so they do not grow with the run's throughput. Shares are of the time spent
// inside robust-design runs, except the serve.* shares (of session time) and
// observe_share (of the replay).
var perLayer = []metricDef{
	{"designer.calls", "count/op"},
	{"designer.busy_s", "s/op"},
	{"designer.share", "frac"},
	{"designer.candidates", "count/op"},
	{"costmodel.calls", "count/op"},
	{"costmodel.eval_calls", "count/op"},
	{"costmodel.designer_calls", "count/op"},
	{"costmodel.eval_share", "frac"},
	{"costcache.hit_ratio", "frac"},
	{"eval.workloads", "count/op"},
	{"eval.fastpath_ratio", "frac"},
	{"eval.warm_hits", "count/op"},
	{"sample.draws", "count/op"},
	{"sample.fastpath_ratio", "frac"},
	{"sample.busy_s", "s/op"},
	{"sample.share", "frac"},
	{"distance.calls", "count/op"},
	{"distance.share", "frac"},
	{"core.iterations", "count/op"},
	{"core.moves_accepted", "count/op"},
	{"core.unattributed_frac", "frac"},
	{"online.observe_share", "frac"},
	{"online.drift_checks", "count/op"},
	{"online.drift_fires", "count/op"},
	{"online.published", "count/op"},
	{"online.warm_hit_ratio", "frac"},
	{"ingest.statements", "count/op"},
	{"ingest.fold_ratio", "frac"},
	{"serve.tenant_create_share", "frac"},
	{"serve.workload_post_share", "frac"},
	{"serve.run_submit_share", "frac"},
	{"serve.run_poll_share", "frac"},
	{"serve.design_get_share", "frac"},
	{"serve.report_get_share", "frac"},
	{"serve.tenant_delete_share", "frac"},
	{"serve.polls_per_session", "count/op"},
	{"serve.queue_wait_share", "frac"},
	{"serve.run_share", "frac"},
	{"serve.shared_hit_ratio", "frac"},
	{"serve.shared_entries", "count"},
	{"obs.trace_overhead_frac", "frac"},
}

// designLayers fills the per-layer metrics every workload shares. designDur
// is the time spent inside robust-design runs; designerDur, cost and dist are
// what the wrapped designer, evaluation cost model and distance metric did
// inside it (zero where the program ran them unwrapped).
func (m *measure) designLayers(designDur, designerDur time.Duration, cost, dist foldTotal, met *obs.Metrics) {
	if m.layer == nil {
		m.layer = map[string]float64{}
	}
	snap := met.Snapshot()
	share := func(d time.Duration) float64 { return ratio(d.Seconds(), designDur.Seconds()) }
	ops := float64(len(m.lat))
	perOp := func(n float64) float64 { return ratio(n, ops) }
	sampleBusy := time.Duration(met.SampleLatency.Snapshot().SumUs) * time.Microsecond
	l := m.layer
	l["designer.calls"] = perOp(float64(snap.DesignerInvocations))
	l["designer.busy_s"] = perOp(designerDur.Seconds())
	l["designer.share"] = share(designerDur)
	l["designer.candidates"] = perOp(float64(snap.CandidatesGenerated))
	l["costmodel.calls"] = perOp(float64(snap.CostModelCalls))
	l["costmodel.eval_calls"] = perOp(float64(cost.calls))
	l["costmodel.designer_calls"] = perOp(float64(snap.CostModelCalls) - float64(cost.calls))
	l["costmodel.eval_share"] = share(cost.wall)
	var hits, misses uint64
	for _, name := range []string{"vertsim", "rowsim"} { // the engines' costcache memos
		c := snap.Caches[name]
		hits, misses = hits+c.Hits, misses+c.Misses
	}
	l["costcache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	l["eval.workloads"] = perOp(float64(snap.NeighborsEvaluated))
	l["eval.fastpath_ratio"] = ratio(float64(snap.EvalFastPath), float64(snap.EvalFastPath+snap.EvalSlowPath))
	l["eval.warm_hits"] = perOp(float64(snap.EvalWarmHits))
	l["sample.draws"] = perOp(float64(snap.SamplerDraws))
	l["sample.fastpath_ratio"] = ratio(float64(snap.SamplerFastPath), float64(snap.SamplerFastPath+snap.SamplerSlowPath))
	l["sample.busy_s"] = perOp(sampleBusy.Seconds())
	l["sample.share"] = share(sampleBusy)
	l["distance.calls"] = perOp(float64(dist.calls))
	l["distance.share"] = share(dist.wall)
	l["core.iterations"] = perOp(float64(snap.IterationsCompleted))
	l["core.moves_accepted"] = perOp(float64(snap.MovesAccepted))
	l["core.unattributed_frac"] = 1 - share(designerDur) - share(cost.wall) - share(sampleBusy)
	l["online.drift_checks"] = perOp(float64(snap.OnlineDriftChecks))
	l["online.drift_fires"] = perOp(float64(snap.OnlineDriftFires))
	l["online.published"] = perOp(float64(snap.OnlinePublished))
	l["ingest.statements"] = perOp(float64(snap.IngestQueriesStreamed))
	l["ingest.fold_ratio"] = ratio(float64(snap.IngestTemplatesCompressed), float64(snap.IngestQueriesStreamed))
	if c, ok := snap.Caches[sharedCacheName]; ok {
		l["serve.shared_hit_ratio"] = ratio(float64(c.Hits), float64(c.Hits+c.Misses))
		l["serve.shared_entries"] = float64(c.Entries)
	}
}

// sharedCacheName is the registry name of cliffguardd's cross-tenant memo.
const sharedCacheName = "shared-unitcost"

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile interpolates the q-quantile of xs (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
