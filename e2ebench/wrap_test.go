package main

import (
	"context"
	"reflect"
	"testing"

	"cliffguard/internal/core"
	"cliffguard/internal/distance"
	"cliffguard/internal/engine"
	"cliffguard/internal/obs"
	"cliffguard/internal/portfolio"
	"cliffguard/internal/sample"
)

// The wrappers keep exactly the optional interfaces of what they wrap.
func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	eng, err := engine.Open(engine.Spec{Kind: engine.KindVertica})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrapDesigner(eng.NominalDesigner(verticaBudget), tr).(portfolio.CandidateProvider); !ok {
		t.Error("wrapped engine designer lost CandidateProvider")
	}
	if _, ok := wrapDesigner(&core.CliffGuard{}, tr).(portfolio.CandidateProvider); ok {
		t.Error("wrapped CliffGuard designer gained CandidateProvider")
	}
	if _, ok := wrapMetric(distance.NewEuclidean(8), tr).(distance.Quadratic); !ok {
		t.Error("wrapped Euclidean metric lost Quadratic")
	}
	if _, ok := wrapMetric(&distance.Latency{}, tr).(distance.Quadratic); ok {
		t.Error("wrapped Latency metric gained Quadratic")
	}
}

// At Parallelism 1 a wrapped run is the unwrapped run: same design, same
// traces, same registry counts. The wrappers only observe.
func TestWrappedRunMatchesUnwrapped(t *testing.T) {
	r, err := generateR1()
	if err != nil {
		t.Fatal(err)
	}
	scorer, err := engine.Open(engine.Spec{Kind: engine.KindVertica, Schema: r.schema})
	if err != nil {
		t.Fatal(err)
	}
	f, err := newDesignableFilter(scorer, verticaBudget)
	if err != nil {
		t.Fatal(err)
	}
	w := f.slice(r.set.Months[1])

	type outcome struct {
		fp     uint64
		traces []core.Trace
		stats  core.RunStats
		snap   obs.MetricsSnapshot
	}
	run := func(tr *tracer) outcome {
		met := obs.NewMetrics()
		eng, err := engine.Open(engine.Spec{Kind: engine.KindVertica, Schema: r.schema})
		if err != nil {
			t.Fatal(err)
		}
		eng.Instrument(met)
		metric := wrapMetric(distance.NewEuclidean(r.schema.NumColumns()), tr)
		sampler := sample.New(metric, sample.NewMutator(r.schema))
		sampler.Metrics = met
		cg := core.New(wrapDesigner(eng.NominalDesigner(verticaBudget), tr), wrapCost(eng, tr), sampler, core.Options{
			Gamma: batchGamma, Samples: 12, Iterations: 4, Parallelism: 1, Seed: 7, Metrics: met,
		})
		ctx, sp := tr.start(context.Background(), "core.design")
		h := cg.Start(ctx, w)
		d, traces, err := h.Await(ctx)
		tr.end(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{d.Fingerprint(), traces, h.Stats(), met.Snapshot()}
	}

	plain := run(nil)
	tr := newTracer()
	traced := run(tr)
	if plain.fp != traced.fp {
		t.Errorf("design fingerprint %x, wrapped %x", plain.fp, traced.fp)
	}
	if !reflect.DeepEqual(plain.traces, traced.traces) || plain.stats != traced.stats {
		t.Errorf("traces or run stats differ when wrapped")
	}
	// Latencies are wall-clock; every counter must match.
	plain.snap.Latency, traced.snap.Latency = nil, nil
	pc, tc := plain.snap.Caches, traced.snap.Caches
	plain.snap.Caches, traced.snap.Caches = nil, nil
	if !reflect.DeepEqual(plain.snap, traced.snap) {
		t.Errorf("registry counters differ when wrapped:\n plain  %+v\n traced %+v", plain.snap, traced.snap)
	}
	if !reflect.DeepEqual(pc, tc) {
		t.Errorf("memo cache stats differ when wrapped")
	}

	// The wrappers saw what the registry counted.
	designs := tr.totals("core.design")
	if got := tr.totals("designer.design").count; uint64(got) != traced.snap.DesignerInvocations {
		t.Errorf("%d designer spans, registry counted %d invocations", got, traced.snap.DesignerInvocations)
	}
	if c := designs.folds[foldCost].calls; c == 0 || uint64(c) >= traced.snap.CostModelCalls {
		t.Errorf("%d evaluation cost calls folded of %d registry calls", c, traced.snap.CostModelCalls)
	}
	if traced.snap.SamplerFastPath == 0 || designs.folds[foldDist].calls == 0 {
		t.Errorf("sampler fast path %d, folded distance calls %d: the Quadratic fast path must survive wrapping",
			traced.snap.SamplerFastPath, designs.folds[foldDist].calls)
	}
}
