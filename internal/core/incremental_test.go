package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"cliffguard/internal/obs"
)

// runEvalPath runs a fixed-seed robust design with the incremental fast path
// on or off, at the given parallelism, and returns everything the equivalence
// contract covers: the event log, the traces, the final design, and the
// metrics registry.
func runEvalPath(t *testing.T, disable bool, parallelism int) ([]obs.Event, []Trace, map[string]bool, *obs.Metrics) {
	t.Helper()
	s := testSchema()
	rng := rand.New(rand.NewSource(3))
	w := testWorkload(s, rng, 10)
	rec := &obs.Recorder{}
	met := obs.NewMetrics()
	cg, _ := newGuard(s, Options{
		Gamma: 0.004, Samples: 10, Iterations: 4, Seed: 11,
		Parallelism: parallelism, DisableEvalFastPath: disable,
		Observer: rec, Metrics: met,
	})
	d, traces, err := cg.DesignWithTrace(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Events(), traces, d.Keys(), met
}

// TestEvalFastPathBitIdentical pins the tentpole equivalence contract: with
// the unit-cost memo and pass replay on, designs, traces, and the event
// stream are bit-identical to the legacy full-pass evaluation — at
// parallelism 1 even the raw event order matches (replay emits index order,
// which is the serial path's literal order), and at NumCPU the canonical
// normalized streams match.
func TestEvalFastPathBitIdentical(t *testing.T) {
	type variant struct {
		name    string
		disable bool
		par     int
	}
	variants := []variant{
		{"fast/p1", false, 1},
		{"legacy/p1", true, 1},
		{"fast/pN", false, runtime.NumCPU()},
		{"legacy/pN", true, runtime.NumCPU()},
	}
	events := make([][]obs.Event, len(variants))
	traces := make([][]Trace, len(variants))
	keys := make([]map[string]bool, len(variants))
	for i, v := range variants {
		events[i], traces[i], keys[i], _ = runEvalPath(t, v.disable, v.par)
	}

	ref := 0 // fast/p1 is the reference
	for i := 1; i < len(variants); i++ {
		if len(traces[i]) != len(traces[ref]) {
			t.Fatalf("%s: %d traces, want %d", variants[i].name, len(traces[i]), len(traces[ref]))
		}
		for j := range traces[ref] {
			if traces[i][j] != traces[ref][j] {
				t.Fatalf("%s: trace %d differs: %+v vs %+v",
					variants[i].name, j, traces[i][j], traces[ref][j])
			}
		}
		if len(keys[i]) != len(keys[ref]) {
			t.Fatalf("%s: design has %d structures, want %d",
				variants[i].name, len(keys[i]), len(keys[ref]))
		}
		for k := range keys[ref] {
			if !keys[i][k] {
				t.Fatalf("%s: design missing structure %s", variants[i].name, k)
			}
		}
		a, b := normalize(events[ref]), normalize(events[i])
		if len(a) != len(b) {
			t.Fatalf("%s: %d events, want %d", variants[i].name, len(b), len(a))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("%s: event %d differs:\n  ref: %#v\n  got: %#v",
					variants[i].name, j, a[j], b[j])
			}
		}
	}

	// At parallelism 1 the raw, un-normalized streams must also agree:
	// replayed passes emit in index order, which is exactly the order the
	// serial legacy path produces.
	fast, legacy := events[0], events[1]
	if len(fast) != len(legacy) {
		t.Fatalf("p=1 raw event counts differ: %d vs %d", len(fast), len(legacy))
	}
	for i := range fast {
		if fast[i] != legacy[i] {
			t.Fatalf("p=1 raw event %d differs:\n  fast:   %#v\n  legacy: %#v",
				i, fast[i], legacy[i])
		}
	}
}

// TestEvalFastPathReducesCostModelCalls pins the point of the fast path: the
// memoized run must invoke the cost model strictly fewer times than the
// legacy run, serve at least one workload evaluation entirely from the memo,
// and the legacy run must never take the fast path.
func TestEvalFastPathReducesCostModelCalls(t *testing.T) {
	instrument := func(disable bool) *obs.Metrics {
		s := testSchema()
		rng := rand.New(rand.NewSource(3))
		w := testWorkload(s, rng, 10)
		met := obs.NewMetrics()
		cg, db := newGuard(s, Options{
			Gamma: 0.004, Samples: 10, Iterations: 4, Seed: 11,
			Parallelism: 1, DisableEvalFastPath: disable, Metrics: met,
		})
		db.Instrument(met)
		if _, err := cg.Design(context.Background(), w); err != nil {
			t.Fatal(err)
		}
		return met
	}
	fast := instrument(false)
	legacy := instrument(true)

	if f, l := fast.CostModelCalls.Load(), legacy.CostModelCalls.Load(); f >= l {
		t.Fatalf("fast path made %d cost-model calls, legacy %d — expected a reduction", f, l)
	}
	if fast.EvalFastPath.Load() == 0 {
		t.Fatal("fast run served no workload evaluation from the memo")
	}
	if legacy.EvalFastPath.Load() != 0 {
		t.Fatalf("legacy run took the fast path %d times", legacy.EvalFastPath.Load())
	}
	if legacy.EvalSlowPath.Load() == 0 {
		t.Fatal("legacy run recorded no slow-path evaluations")
	}
	snaps := fast.CacheSnapshots()
	ec, ok := snaps["evalcache"]
	if !ok {
		t.Fatal("evalcache not registered with the metrics registry")
	}
	if ec.Hits == 0 || ec.Misses == 0 {
		t.Fatalf("evalcache saw no traffic: hits=%d misses=%d", ec.Hits, ec.Misses)
	}
	if _, ok := legacy.CacheSnapshots()["evalcache"]; ok {
		t.Fatal("legacy run registered the evalcache despite DisableEvalFastPath")
	}
	// Two-generation eviction holds the memo to the incumbent + candidate
	// fingerprints; entries must not grow with the iteration count.
	if ec.Entries != 0 && fast.IterationsCompleted.Load() > 0 {
		// retain() runs at the end of every iteration, so at most two
		// generations of unit costs survive the run.
		if ec.Entries > 2*10*16 { // 2 fps x |workloads| x generous per-workload query bound
			t.Fatalf("evalcache retained %d entries — eviction not bounding memory", ec.Entries)
		}
	}
}

// TestRunMemoReleasedAtRunEnd: when a run returns, the registry's
// "evalcache" entry is a frozen copy of the memo's final stats, so a
// long-lived registry keeps the numbers but no reference to the memo. A
// memo touched after release leaves the registered stats unchanged.
func TestRunMemoReleasedAtRunEnd(t *testing.T) {
	s := testSchema()
	w := testWorkload(s, rand.New(rand.NewSource(3)), 4)
	met := obs.NewMetrics()
	re := (&CliffGuard{}).newRunEval(Options{Metrics: met})
	q := w.Items[0].Q
	re.units.Store(q, 1, 42, false)
	if _, _, ok := re.units.Lookup(q, 1); !ok {
		t.Fatal("stored unit cost not found")
	}
	live := met.CacheSnapshots()["evalcache"]
	re.release(met)
	frozen := met.CacheSnapshots()["evalcache"]
	if frozen.Hits != live.Hits || frozen.Misses != live.Misses || frozen.Entries != live.Entries {
		t.Fatalf("released stats %+v, want the final live stats %+v", frozen, live)
	}
	re.units.Lookup(q, 2)
	re.units.Store(q, 2, 7, false)
	if again := met.CacheSnapshots()["evalcache"]; again.Misses != frozen.Misses || again.Entries != frozen.Entries {
		t.Fatalf("registry still reads the live memo: %+v after release, %+v at release", again, frozen)
	}

	// A whole run registers the same final numbers it would have read live.
	events, _, _, runMet := runEvalPath(t, false, 1)
	if len(events) == 0 {
		t.Fatal("run emitted no events")
	}
	ec := runMet.CacheSnapshots()["evalcache"]
	if ec.Hits == 0 || ec.Misses == 0 || len(ec.Shards) == 0 {
		t.Fatalf("released run stats %+v, want the run's traffic", ec)
	}
}
