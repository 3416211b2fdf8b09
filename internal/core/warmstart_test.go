package core

import (
	"context"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"cliffguard/internal/designer"
	"cliffguard/internal/distance"
	"cliffguard/internal/evalcache"
	"cliffguard/internal/sample"
	"cliffguard/internal/schema"
	"cliffguard/internal/vertsim"
	"cliffguard/internal/workload"
)

// tallyCost wraps a cost model and counts evaluation-layer invocations.
type tallyCost struct {
	inner designer.CostModel
	calls atomic.Uint64
}

func (c *tallyCost) Cost(ctx context.Context, q *workload.Query, d *designer.Design) (float64, error) {
	c.calls.Add(1)
	return c.inner.Cost(ctx, q, d)
}

// newTallyGuard is newGuard with the evaluation cost model wrapped in a call
// counter (the nominal designer keeps the raw engine, as in the benches).
func newTallyGuard(s *schema.Schema, opts Options) (*CliffGuard, *tallyCost) {
	return newMemoGuard(s, opts, func(cm designer.CostModel) designer.CostModel { return cm })
}

// newMemoGuard is newTallyGuard with the counted cost model passed through
// wrap before the loop sees it — how a warm start is assembled: the loop
// gets evalcache.Over(counted, warm, export) as its plain cost model.
func newMemoGuard(s *schema.Schema, opts Options, wrap func(designer.CostModel) designer.CostModel) (*CliffGuard, *tallyCost) {
	db := vertsim.Open(s)
	nominal := vertsim.NewDesigner(db, 256<<20)
	metric := distance.NewEuclidean(s.NumColumns())
	sampler := sample.New(metric, sample.NewMutator(s))
	counting := &tallyCost{inner: db}
	return New(nominal, wrap(counting), sampler, opts), counting
}

// TestWarmStartBitIdenticalAndSilent pins the cross-run handoff contract: a
// run over evalcache.Over(cost, nil, export) fills export, and a re-run of
// the identical (workload, seed, options) run over Over(cost, export, nil)
// must produce bit-identical designs and traces while making zero cost-model
// calls — every unit cost it needs is in the memo, and the memoized values
// are the exact model outputs.
func TestWarmStartBitIdenticalAndSilent(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(3))
	w := testWorkload(s, rng, 10)
	opts := Options{Gamma: 0.004, Samples: 10, Iterations: 4, Seed: 11, Parallelism: 1}

	gen := evalcache.NewShared()
	run := func(over func(designer.CostModel) *evalcache.MemoCost) (*designer.Design, []Trace, RunStats, *tallyCost, *evalcache.MemoCost) {
		var memo *evalcache.MemoCost
		cg, counting := newMemoGuard(s, opts, func(cm designer.CostModel) designer.CostModel {
			memo = over(cm)
			return memo
		})
		h := cg.Start(context.Background(), w.Clone())
		d, traces, err := h.Await(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return d, traces, h.Stats(), counting, memo
	}

	coldD, coldTraces, coldStats, coldCount, coldMemo := run(func(cm designer.CostModel) *evalcache.MemoCost {
		return evalcache.Over(cm, nil, gen)
	})
	if gen.Len() == 0 {
		t.Fatal("cold run exported nothing")
	}
	if coldMemo.Hits() != 0 {
		t.Fatalf("cold run reported %d warm hits", coldMemo.Hits())
	}
	if coldCount.calls.Load() == 0 || coldMemo.Misses() != coldCount.calls.Load() {
		t.Fatalf("cold run: %d model calls, %d memo misses", coldCount.calls.Load(), coldMemo.Misses())
	}

	warmD, warmTraces, warmStats, warmCount, warmMemo := run(func(cm designer.CostModel) *evalcache.MemoCost {
		return evalcache.Over(cm, gen, nil)
	})

	if got := warmCount.calls.Load(); got != 0 {
		t.Errorf("warm run made %d cost-model calls, want 0 (identical trajectory is fully memoized)", got)
	}
	if warmMemo.Hits() == 0 {
		t.Error("warm run served no lookups from the handed-over memo")
	}
	if warmD.Fingerprint() != coldD.Fingerprint() || warmD.String() != coldD.String() {
		t.Errorf("warm design differs from cold:\n  cold: %s\n  warm: %s", coldD, warmD)
	}
	if len(warmTraces) != len(coldTraces) {
		t.Fatalf("warm run has %d traces, cold %d", len(warmTraces), len(coldTraces))
	}
	for i := range coldTraces {
		if warmTraces[i] != coldTraces[i] {
			t.Errorf("trace %d differs: cold %+v vs warm %+v", i, coldTraces[i], warmTraces[i])
		}
	}
	if warmStats != coldStats {
		t.Errorf("stats differ: cold %+v vs warm %+v", coldStats, warmStats)
	}
}

// TestOverNilReadKeepsCallCount pins the wrapper's count contract: the
// write memo is never read, so a run over evalcache.Over(cost, nil, w) makes
// exactly the cost-model calls — and returns exactly the design and traces —
// of the same run over the bare cost model.
func TestOverNilReadKeepsCallCount(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(5))
	w := testWorkload(s, rng, 12)
	opts := Options{Gamma: 0.004, Samples: 10, Iterations: 4, Seed: 13, Parallelism: 1}

	bare, bareCount := newTallyGuard(s, opts)
	bareD, bareTraces, err := bare.Start(context.Background(), w.Clone()).Await(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gen := evalcache.NewShared()
	wrapped, wrappedCount := newMemoGuard(s, opts, func(cm designer.CostModel) designer.CostModel {
		return evalcache.Over(cm, nil, gen)
	})
	d, traces, err := wrapped.Start(context.Background(), w.Clone()).Await(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := wrappedCount.calls.Load(), bareCount.calls.Load(); got != want || want == 0 {
		t.Fatalf("run over Over(cost, nil, w) made %d cost-model calls, bare run %d", got, want)
	}
	if d.Fingerprint() != bareD.Fingerprint() || !slices.Equal(traces, bareTraces) {
		t.Fatal("wrapped run diverged from the bare run")
	}
}

// TestWarmStartConcurrentImport shares one exported memo between two warm
// runs at Parallelism 4 that execute at the same time, so the memo's lookups
// and the wrappers' hit counters are hit from many evaluator goroutines at
// once (run under -race). Both runs must still reproduce the cold design and
// traces with no cost-model calls.
func TestWarmStartConcurrentImport(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(3))
	w := testWorkload(s, rng, 10)
	base := Options{Gamma: 0.004, Samples: 10, Iterations: 4, Seed: 11, Parallelism: 1}

	gen := evalcache.NewShared()
	cg, _ := newMemoGuard(s, base, func(cm designer.CostModel) designer.CostModel {
		return evalcache.Over(cm, nil, gen)
	})
	coldD, coldTraces, err := cg.Start(context.Background(), w.Clone()).Await(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	warm := base
	warm.Parallelism = 4
	type out struct {
		h     *RunHandle
		calls *tallyCost
	}
	runs := make([]out, 2)
	for i := range runs {
		cg, counting := newMemoGuard(s, warm, func(cm designer.CostModel) designer.CostModel {
			return evalcache.Over(cm, gen, nil)
		})
		runs[i] = out{cg.Start(context.Background(), w.Clone()), counting}
	}
	for i, r := range runs {
		d, traces, err := r.h.Await(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if d.Fingerprint() != coldD.Fingerprint() || !slices.Equal(traces, coldTraces) {
			t.Errorf("warm run %d diverged from cold", i)
		}
		if got := r.calls.calls.Load(); got != 0 {
			t.Errorf("warm run %d made %d cost-model calls, want 0", i, got)
		}
	}
}

// TestInitialDesignSeedsRun pins the incumbent-seeding contract: the seeded
// run scores the incumbent on the initial neighborhood, starts from the
// better of {incumbent, nominal}, and can therefore never return a design
// whose worst-case cost regresses vs the incumbent — the safety acceptance
// rule's by-construction branch.
func TestInitialDesignSeedsRun(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(3))
	w := testWorkload(s, rng, 10)
	base := Options{Gamma: 0.004, Samples: 10, Iterations: 4, Seed: 11, Parallelism: 1}

	cg, _ := newTallyGuard(s, base)
	h := cg.Start(context.Background(), w.Clone())
	incumbent, _, err := h.Await(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	coldStats := h.Stats()
	if coldStats.IncumbentScored || coldStats.SeededFromIncumbent {
		t.Fatalf("unseeded run reported incumbent stats: %+v", coldStats)
	}

	seeded := base
	seeded.InitialDesign = incumbent
	cg2, _ := newTallyGuard(s, seeded)
	h2 := cg2.Start(context.Background(), w.Clone())
	d2, _, err := h2.Await(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stats := h2.Stats()
	if !stats.IncumbentScored {
		t.Fatal("seeded run did not score the incumbent")
	}
	if stats.FinalWorst > stats.IncumbentWorst {
		t.Errorf("seeded run regressed: FinalWorst %g > IncumbentWorst %g",
			stats.FinalWorst, stats.IncumbentWorst)
	}
	if stats.FinalWorst > coldStats.FinalWorst {
		t.Errorf("seeded run (%g) worse than unseeded (%g) on the same workload",
			stats.FinalWorst, coldStats.FinalWorst)
	}
	if d2 == nil {
		t.Fatal("seeded run returned no design")
	}
}

// TestInitialDesignMatchingNominal covers the fingerprint-equality shortcut:
// seeding with a design identical to the nominal one is scored for free (the
// nominal pass already priced it) and never reported as a seed switch.
func TestInitialDesignMatchingNominal(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(3))
	w := testWorkload(s, rng, 10)

	cg0, _ := newGuard(s, Options{Gamma: 0, Seed: 1})
	nominal, err := cg0.Nominal.Design(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}

	opts := Options{Gamma: 0.004, Samples: 10, Iterations: 2, Seed: 11,
		Parallelism: 1, InitialDesign: nominal}
	cg, _ := newGuard(s, opts)
	h := cg.Start(context.Background(), w.Clone())
	if _, _, err := h.Await(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := h.Stats()
	if !stats.IncumbentScored {
		t.Fatal("incumbent identical to nominal was not scored")
	}
	if stats.SeededFromIncumbent {
		t.Fatal("identical incumbent reported as a seed switch")
	}
	if stats.IncumbentWorst != stats.NominalWorst {
		t.Errorf("IncumbentWorst %g != NominalWorst %g for identical designs",
			stats.IncumbentWorst, stats.NominalWorst)
	}
}

// TestGammaZeroReturnsNoGeneration: a Gamma=0 run takes the nominal early
// return and never evaluates anything through the loop's cost model, so a
// memo wrapped around it receives nothing.
func TestGammaZeroReturnsNoGeneration(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(1))
	w := testWorkload(s, rng, 8)
	gen := evalcache.NewShared()
	cg, counting := newMemoGuard(s, Options{Gamma: 0, Seed: 1}, func(cm designer.CostModel) designer.CostModel {
		return evalcache.Over(cm, nil, gen)
	})
	if _, _, err := cg.Start(context.Background(), w).Await(context.Background()); err != nil {
		t.Fatal(err)
	}
	if gen.Len() != 0 || counting.calls.Load() != 0 {
		t.Fatalf("Gamma=0 run exported %d pairs after %d loop cost calls, want none", gen.Len(), counting.calls.Load())
	}
}
