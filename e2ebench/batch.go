package main

import (
	"context"
	"time"

	"cliffguard/internal/core"
	"cliffguard/internal/designer"
	"cliffguard/internal/distance"
	"cliffguard/internal/engine"
	"cliffguard/internal/obs"
	"cliffguard/internal/sample"
	"cliffguard/internal/workload"
)

// batch-r1-vertica: Section 6.4's monthly re-design loop (F7a's CliffGuard
// row). Each pass opens a fresh columnar engine and, for every R1 month i,
// designs on month i's designable slice; pass 0's designs are scored on month
// i+1 after the timed region. The loop is smaller than F7a's (n=40, 12
// iterations): at that size a 30-second run holds only about 50 designs, too
// few for the design-time median to settle within a few percent.
const (
	batchGamma       = 0.002
	batchSamples     = 20
	batchIterations  = 6
	batchParallelism = 2
)

// scoredPasses is how many passes (batch) or replays (online) are scored for
// future_avg_ms: each has its own sampling seeds, so scoring several keeps
// the metric's spread across --seed values small. A 30-second run finishes
// at least twice as many.
const scoredPasses = 4

type batchWorkload struct {
	r1     *r1
	scorer *designableFilter // its own engine: filtering and scoring never warm the program's memo
	slices []*workload.Workload
	seed   int64
}

func setupBatch(r *r1, seed int64) (runner, error) {
	eng, err := engine.Open(engine.Spec{Kind: engine.KindVertica, Schema: r.schema})
	if err != nil {
		return nil, err
	}
	f, err := newDesignableFilter(eng, verticaBudget)
	if err != nil {
		return nil, err
	}
	b := &batchWorkload{r1: r, scorer: f, seed: seed}
	for _, m := range r.set.Months {
		b.slices = append(b.slices, f.slice(m))
	}
	return b, nil
}

// designSeed gives every (pass, month) design its own sampling seed, so a
// run averages over CliffGuard's sampling variance instead of repeating it.
func designSeed(seed int64, pass, i int) int64 {
	return seed*1_000_003 + int64(pass)*7919 + int64(i)
}

// design runs one robust design through core.CliffGuard's Start/Await.
func (b *batchWorkload) design(ctx context.Context, nominal designer.Designer, cost designer.CostModel, metric distance.Metric, met *obs.Metrics, w *workload.Workload, seed int64, parallelism int) (*designer.Design, core.RunStats, error) {
	sampler := sample.New(metric, sample.NewMutator(b.r1.schema))
	sampler.Metrics = met
	cg := core.New(nominal, cost, sampler, core.Options{
		Gamma: batchGamma, Samples: batchSamples, Iterations: batchIterations,
		Parallelism: parallelism, Seed: seed, Metrics: met,
	})
	h := cg.Start(ctx, w)
	d, _, err := h.Await(ctx)
	return d, h.Stats(), err
}

func (b *batchWorkload) run(ctx context.Context, seconds float64, tr *tracer, met *obs.Metrics) (*measure, error) {
	m := &measure{}
	months := len(b.slices) - 1
	var scored [][]*designer.Design // the first scoredPasses passes' designs, scored below
	m.beginTimed()
	start := time.Now()
	for pass := 0; ; pass++ {
		// Whole passes only: every month is designed equally often, so the
		// mix of cheap early months and expensive late ones is the same in
		// every run.
		if el := time.Since(start).Seconds(); pass > 0 && el+el/float64(pass)/2 >= seconds {
			break
		}
		eng, err := engine.Open(engine.Spec{Kind: engine.KindVertica, Schema: b.r1.schema})
		if err != nil {
			return nil, err
		}
		eng.Instrument(met)
		nominal := wrapDesigner(eng.NominalDesigner(verticaBudget), tr)
		cost := wrapCost(eng, tr)
		metric := wrapMetric(distance.NewEuclidean(b.r1.schema.NumColumns()), tr)
		passStart := time.Now()
		for i := 0; i < months; i++ {
			sctx, sp := tr.start(ctx, "core.design")
			t0 := time.Now()
			d, stats, err := b.design(sctx, nominal, cost, metric, met, b.slices[i], designSeed(b.seed, pass, i), batchParallelism)
			m.lat = append(m.lat, time.Since(t0).Seconds())
			tr.end(ctx, sp)
			m.attempted++
			switch {
			case err != nil:
				m.fail("batch pass %d month %d: %v", pass, i, err)
			case !(stats.FinalWorst <= stats.NominalWorst):
				m.fail("batch pass %d month %d: final worst case %g exceeds the nominal design's %g", pass, i, stats.FinalWorst, stats.NominalWorst)
			}
			if pass < scoredPasses {
				if i == 0 {
					scored = append(scored, nil)
				}
				scored[pass] = append(scored[pass], d)
			}
		}
		m.rates = append(m.rates, float64(months)/time.Since(passStart).Seconds())
	}
	m.elapsed = time.Since(start).Seconds()
	m.units = float64(len(m.lat))
	m.allocUnits = m.units
	m.finishTimed()

	// Outside the timed region: score the first passes on the following
	// months, and re-design one month at Parallelism 1 on a fresh engine —
	// designs must be bit-identical at any parallelism.
	var sum float64
	n := 0
	for _, designs := range scored {
		for i, d := range designs {
			if d == nil {
				continue
			}
			avg, err := b.scorer.avgLatency(b.r1.set.Months[i+1], d)
			if err != nil {
				m.fail("scoring month %d: %v", i+1, err)
				continue
			}
			sum, n = sum+avg, n+1
		}
	}
	m.futureMs = ratio(sum, float64(n))
	const recheck = 1 // a cheap early month
	eng, err := engine.Open(engine.Spec{Kind: engine.KindVertica, Schema: b.r1.schema})
	if err != nil {
		return nil, err
	}
	d, _, err := b.design(ctx, eng.NominalDesigner(verticaBudget), eng, distance.NewEuclidean(b.r1.schema.NumColumns()), nil, b.slices[recheck], designSeed(b.seed, 0, recheck), 1)
	m.attempted++
	if err != nil {
		m.fail("re-check design: %v", err)
	} else if scored[0][recheck] == nil || d.Fingerprint() != scored[0][recheck].Fingerprint() {
		m.fail("month %d: the Parallelism-1 re-design's fingerprint differs from the timed run's", recheck)
	}

	if tr != nil {
		designs := tr.totals("core.design")
		m.designLayers(designs.dur, tr.totals("designer.design").dur, designs.folds[foldCost], designs.folds[foldDist], met)
	}
	return m, nil
}
