package main

import (
	"context"
	"math"
	"time"

	"cliffguard/internal/core"
	"cliffguard/internal/designer"
	"cliffguard/internal/distance"
	"cliffguard/internal/engine"
	"cliffguard/internal/obs"
	"cliffguard/internal/online"
	"cliffguard/internal/sample"
)

// online-r1-rowstore: every R1 month streamed through online.Controller on a
// fresh row-store engine. The first bucket rotation bootstraps the incumbent;
// after that each fired drift check runs Redesign inline (a closed loop).
const (
	onlineGamma         = 0.0008
	onlineSamples       = 12
	onlineIterations    = 4
	onlineBuckets       = 8
	onlineBucketSize    = 200
	onlineDriftFraction = 0.5
	onlineParallelism   = 2
)

type onlineWorkload struct {
	r1     *r1
	scorer *designableFilter
	seed   int64
}

func setupOnline(r *r1, seed int64) (runner, error) {
	eng, err := engine.Open(engine.Spec{Kind: engine.KindRowStore, Schema: r.schema})
	if err != nil {
		return nil, err
	}
	f, err := newDesignableFilter(eng, rowstoreBudget)
	if err != nil {
		return nil, err
	}
	// Warm the filter's per-template cache now, so scoring after the timed
	// region costs the same in every run.
	for _, m := range r.set.Months {
		f.slice(m)
	}
	return &onlineWorkload{r1: r, scorer: f, seed: seed}, nil
}

func (o *onlineWorkload) run(ctx context.Context, seconds float64, tr *tracer, met *obs.Metrics) (*measure, error) {
	m := &measure{}
	var observeBusy time.Duration
	var incumbents [][]*designer.Design // per scored replay, the incumbent at each month end
	m.beginTimed()
	start := time.Now()
	for replay := 0; ; replay++ {
		if el := time.Since(start).Seconds(); replay > 0 && el+el/float64(replay)/2 >= seconds {
			break
		}
		eng, err := engine.Open(engine.Spec{Kind: engine.KindRowStore, Schema: o.r1.schema})
		if err != nil {
			return nil, err
		}
		eng.Instrument(met)
		metric := wrapMetric(distance.NewEuclidean(o.r1.schema.NumColumns()), tr)
		sampler := sample.New(metric, sample.NewMutator(o.r1.schema))
		sampler.Metrics = met
		ctrl, err := online.New(online.Config{
			Designer: wrapDesigner(eng.NominalDesigner(rowstoreBudget), tr),
			Cost:     wrapCost(eng, tr),
			Sampler:  sampler,
			Metric:   metric,
			Options: core.Options{
				Gamma: onlineGamma, Samples: onlineSamples, Iterations: onlineIterations,
				Parallelism: onlineParallelism, Seed: designSeed(o.seed, replay, 0),
			},
			DriftFraction: onlineDriftFraction,
			Window:        online.WindowConfig{Buckets: onlineBuckets, BucketSize: onlineBucketSize},
			Metrics:       met,
		})
		if err != nil {
			return nil, err
		}
		if replay < scoredPasses {
			incumbents = append(incumbents, nil)
		}
		rctx, rsp := tr.start(ctx, "online.replay")
		replayStart, observed := time.Now(), 0
		bootstrapped := false
		for month, w := range o.r1.set.Months {
			for _, it := range w.Items {
				var t0 time.Time
				if tr != nil {
					t0 = rsp.folds[foldObserve].enter()
				}
				dec := ctrl.Observe(it.Q, it.Weight)
				if tr != nil {
					rsp.folds[foldObserve].exit(t0)
				}
				if !(dec.Fired || (!bootstrapped && dec.Rotated)) {
					continue
				}
				bootstrapped = true
				sctx, sp := tr.start(rctx, "online.redesign")
				t1 := time.Now()
				res, err := ctrl.Redesign(sctx)
				m.lat = append(m.lat, time.Since(t1).Seconds())
				tr.end(rctx, sp)
				m.attempted++
				switch {
				case err != nil:
					m.fail("replay %d: re-design: %v", replay, err)
				case res.Published && !math.IsNaN(res.IncumbentWorst) && res.CandidateWorst > res.IncumbentWorst:
					m.fail("replay %d: published a candidate with worst case %g above the incumbent's %g", replay, res.CandidateWorst, res.IncumbentWorst)
				}
			}
			if replay < scoredPasses && month+1 < len(o.r1.set.Months) {
				incumbents[replay] = append(incumbents[replay], ctrl.Incumbent())
			}
			observed += w.Len()
		}
		tr.end(ctx, rsp)
		m.units += float64(observed)
		m.rates = append(m.rates, float64(observed)/time.Since(replayStart).Seconds())
		if tr != nil {
			_, b, _ := rsp.folds[foldObserve].totals()
			observeBusy += b
		}
	}
	m.elapsed = time.Since(start).Seconds()
	m.allocUnits = m.units / 1000
	m.finishTimed()

	// Outside the timed region: score each month's closing incumbent on the
	// next month.
	var sum float64
	n := 0
	for _, replay := range incumbents {
		for i, d := range replay {
			m.attempted++
			if d == nil {
				m.fail("month %d ended with no incumbent", i)
				continue
			}
			avg, err := o.scorer.avgLatency(o.r1.set.Months[i+1], d)
			if err != nil {
				m.fail("scoring month %d: %v", i+1, err)
				continue
			}
			sum, n = sum+avg, n+1
		}
	}
	m.futureMs = ratio(sum, float64(n))

	if tr != nil {
		redesigns := tr.totals("online.redesign")
		designerT := tr.totals("designer.design")
		m.designLayers(redesigns.dur, designerT.dur, redesigns.folds[foldCost], redesigns.folds[foldDist], met)
		// Observe time net of the re-designs it triggered: the redesign spans
		// are separate calls, so the folded Observe busy time excludes them.
		m.layer["online.observe_share"] = ratio(observeBusy.Seconds(), m.elapsed)
		warm := m.layer["eval.warm_hits"]
		m.layer["online.warm_hit_ratio"] = ratio(warm, warm+m.layer["costmodel.eval_calls"])
	}
	return m, nil
}
