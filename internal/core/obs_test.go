package core

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"cliffguard/internal/obs"
)

// runRecorded runs a fixed-seed robust design with a Recorder attached and
// returns the event log plus the designs/traces.
func runRecorded(t *testing.T, parallelism int) ([]obs.Event, []Trace) {
	t.Helper()
	s := testSchema()
	rng := rand.New(rand.NewSource(3))
	w := testWorkload(s, rng, 10)
	rec := &obs.Recorder{}
	cg, _ := newGuard(s, Options{
		Gamma: 0.004, Samples: 10, Iterations: 4, Seed: 11,
		Parallelism: parallelism, Observer: rec,
	})
	_, traces, err := cg.DesignWithTrace(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Events(), traces
}

// normalize sorts NeighborEvaluated events by Index within each consecutive
// (iteration, phase) run, leaving everything else in place. Within one
// evaluation pass arrival order is scheduling-dependent, but the multiset is
// deterministic — after this normalization the p=1 and p=NumCPU logs must be
// byte-for-byte equal.
func normalize(events []obs.Event) []obs.Event {
	out := make([]obs.Event, len(events))
	copy(out, events)
	i := 0
	for i < len(out) {
		ne, ok := out[i].(obs.NeighborEvaluated)
		if !ok {
			i++
			continue
		}
		j := i + 1
		for j < len(out) {
			n2, ok := out[j].(obs.NeighborEvaluated)
			if !ok || n2.Iteration != ne.Iteration || n2.Phase != ne.Phase {
				break
			}
			j++
		}
		run := out[i:j]
		sort.Slice(run, func(a, b int) bool {
			return run[a].(obs.NeighborEvaluated).Index < run[b].(obs.NeighborEvaluated).Index
		})
		i = j
	}
	return out
}

// TestObserverEventSequence pins the contract of the event stream: for a
// fixed seed the full event sequence is identical at parallelism 1 and
// NumCPU once per-pass NeighborEvaluated events are ordered by index (the
// multiset per pass is deterministic; only the interleaving is not).
func TestObserverEventSequence(t *testing.T) {
	seq, traces := runRecorded(t, 1)
	par, parTraces := runRecorded(t, runtime.NumCPU())

	if len(traces) != len(parTraces) {
		t.Fatalf("trace lengths differ: %d vs %d", len(traces), len(parTraces))
	}
	for i := range traces {
		if traces[i] != parTraces[i] {
			t.Fatalf("trace %d differs: %+v vs %+v", i, traces[i], parTraces[i])
		}
	}

	ns, np := normalize(seq), normalize(par)
	if len(ns) != len(np) {
		t.Fatalf("event counts differ: %d vs %d", len(ns), len(np))
	}
	for i := range ns {
		if ns[i] != np[i] {
			t.Fatalf("event %d differs:\n  p=1: %#v\n  p=N: %#v", i, ns[i], np[i])
		}
	}

	// Structural checks on the serial log: the neighborhood draw precedes the
	// loop, each iteration opens with IterationStart and closes with
	// IterationEnd, and every IterationEnd mirrors the returned trace.
	var sampled, started, ended int
	var ends []obs.IterationEnd
	openIter := -1
	for _, ev := range seq {
		switch e := ev.(type) {
		case obs.NeighborhoodSampled:
			sampled++
			if started > 0 {
				t.Fatal("NeighborhoodSampled after the loop started")
			}
		case obs.IterationStart:
			if openIter != -1 {
				t.Fatalf("IterationStart %d while iteration %d open", e.Iteration, openIter)
			}
			if e.Iteration != started {
				t.Fatalf("IterationStart out of order: got %d, want %d", e.Iteration, started)
			}
			openIter = e.Iteration
			started++
		case obs.IterationEnd:
			if e.Iteration != openIter {
				t.Fatalf("IterationEnd %d does not close open iteration %d", e.Iteration, openIter)
			}
			openIter = -1
			ended++
			ends = append(ends, e)
		case obs.MoveAccepted, obs.MoveRejected, obs.NeighborEvaluated, obs.DesignerInvoked:
			// interior events; pairing is checked via openIter above
		default:
			t.Fatalf("unexpected event type %T", ev)
		}
	}
	if sampled != 1 {
		t.Fatalf("NeighborhoodSampled emitted %d times", sampled)
	}
	if started == 0 || started != ended {
		t.Fatalf("unbalanced iterations: %d starts, %d ends", started, ended)
	}
	if len(ends) != len(traces) {
		t.Fatalf("%d IterationEnd events, %d traces", len(ends), len(traces))
	}
	for i, e := range ends {
		got := Trace{Iteration: e.Iteration, Alpha: e.Alpha, WorstCase: e.WorstCase,
			CandidateCost: e.CandidateCost, Improved: e.Improved}
		if got != traces[i] {
			t.Fatalf("IterationEnd %d != trace: %+v vs %+v", i, got, traces[i])
		}
	}
}

// TestTracesMatchJSONL round-trips the event stream through the JSONL sink
// and checks that the decoded IterationEnd records reproduce []Trace exactly
// — the one-source-of-truth guarantee behind `cliffguard -events`.
func TestTracesMatchJSONL(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(4))
	w := testWorkload(s, rng, 10)

	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	cg, _ := newGuard(s, Options{
		Gamma: 0.004, Samples: 10, Iterations: 4, Seed: 12, Observer: sink,
	})
	_, traces, err := cg.DesignWithTrace(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	decoded, err := obs.DecodeJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []Trace
	for _, d := range decoded {
		if e, ok := d.Event.(obs.IterationEnd); ok {
			got = append(got, Trace{Iteration: e.Iteration, Alpha: e.Alpha,
				WorstCase: e.WorstCase, CandidateCost: e.CandidateCost, Improved: e.Improved})
		}
	}
	if len(got) != len(traces) {
		t.Fatalf("JSONL has %d iteration records, run returned %d traces", len(got), len(traces))
	}
	for i := range got {
		if got[i] != traces[i] {
			t.Fatalf("JSONL trace %d differs: %+v vs %+v", i, got[i], traces[i])
		}
	}
}

// TestSpanRecorderDoesNotPerturbEvents pins the side-channel contract: with
// a SpanRecorder fanned in next to the JSONL sink, the canonical event
// stream is bit-identical to a run without it — wall-clock time stays in the
// span stream, never in the events.
func TestSpanRecorderDoesNotPerturbEvents(t *testing.T) {
	run := func(withSpans bool) ([]obs.DecodedEvent, []obs.SpanRecord) {
		s := testSchema()
		rng := rand.New(rand.NewSource(4))
		w := testWorkload(s, rng, 10)

		var events, spanBuf bytes.Buffer
		sink := obs.NewJSONLSink(&events)
		observer := obs.Observer(sink)
		var spans *obs.SpanRecorder
		if withSpans {
			spans = obs.NewSpanRecorder(&spanBuf)
			observer = obs.Multi(sink, spans)
		}
		cg, _ := newGuard(s, Options{
			Gamma: 0.004, Samples: 10, Iterations: 4, Seed: 12,
			Parallelism: runtime.NumCPU(), Observer: observer,
		})
		if _, _, err := cg.DesignWithTrace(context.Background(), w); err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		decoded, err := obs.DecodeJSONL(&events)
		if err != nil {
			t.Fatal(err)
		}
		var recs []obs.SpanRecord
		if withSpans {
			if err := spans.Finish(nil); err != nil {
				t.Fatal(err)
			}
			recs, err = obs.DecodeSpans(&spanBuf)
			if err != nil {
				t.Fatal(err)
			}
		}
		return decoded, recs
	}

	plain, _ := run(false)
	observed, spans := run(true)
	if len(plain) != len(observed) {
		t.Fatalf("event counts differ with span recorder attached: %d vs %d", len(plain), len(observed))
	}
	np, no := normalize(eventsOf(plain)), normalize(eventsOf(observed))
	for i := range np {
		if np[i] != no[i] {
			t.Fatalf("event %d differs with span recorder attached:\n  without: %#v\n  with:    %#v", i, np[i], no[i])
		}
	}
	var iterSpans int
	for _, s := range spans {
		if s.Kind == obs.SpanKindSpan && s.Name == obs.SpanIteration {
			iterSpans++
		}
	}
	if iterSpans == 0 {
		t.Fatal("span stream recorded no iteration spans")
	}
}

// eventsOf strips the decode envelope.
func eventsOf(decoded []obs.DecodedEvent) []obs.Event {
	out := make([]obs.Event, len(decoded))
	for i, d := range decoded {
		out[i] = d.Event
	}
	return out
}

// TestObserverParallelHammer runs the loop at full parallelism with a
// mutex-guarded observer, a shared metrics registry, and a goroutine
// concurrently scraping the Prometheus exporter — the -race proof that
// instrumentation is clean under Options.Parallelism > 1.
func TestObserverParallelHammer(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(5))
	w := testWorkload(s, rng, 12)

	met := obs.NewMetrics()
	rec := &obs.Recorder{}
	cg, db := newGuard(s, Options{
		Gamma: 0.004, Samples: 16, Iterations: 4, Seed: 13,
		Parallelism: runtime.NumCPU(), Observer: rec, Metrics: met,
	})
	db.Instrument(met)
	cg.Sampler.Metrics = met

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = met.WritePrometheus(io.Discard)
				_ = met.ExpvarFunc().String()
			}
		}
	}()

	if _, err := cg.Design(context.Background(), w); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()

	if met.NeighborsEvaluated.Load() == 0 || met.CostModelCalls.Load() == 0 {
		t.Fatal("metrics not updated")
	}
	if met.SamplerDraws.Load() == 0 {
		t.Fatal("sampler draws not counted")
	}
	if met.DesignerInvocations.Load() == 0 {
		t.Fatal("designer invocations not counted")
	}
	if met.PoolQueueDepth.Load() != 0 || met.PoolWorkersBusy.Load() != 0 {
		t.Fatalf("pool gauges did not settle: queue=%d busy=%d",
			met.PoolQueueDepth.Load(), met.PoolWorkersBusy.Load())
	}
	snaps := met.CacheSnapshots()
	if snaps["evalcache"].Hits+snaps["evalcache"].Misses == 0 {
		t.Fatal("run memo saw no traffic")
	}
	if len(rec.Events()) == 0 {
		t.Fatal("no events recorded")
	}
}

// TestNilObserverIdenticalResults checks that attaching an observer changes
// nothing about the computation: designs and traces are bit-identical with
// and without instrumentation.
func TestNilObserverIdenticalResults(t *testing.T) {
	run := func(instrument bool) ([]Trace, map[string]bool) {
		s := testSchema()
		rng := rand.New(rand.NewSource(6))
		w := testWorkload(s, rng, 10)
		opts := Options{Gamma: 0.004, Samples: 10, Iterations: 4, Seed: 14}
		if instrument {
			opts = opts.WithObserver(&obs.Recorder{}).WithMetrics(obs.NewMetrics())
		}
		cg, _ := newGuard(s, opts)
		d, traces, err := cg.DesignWithTrace(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		return traces, d.Keys()
	}
	plainTraces, plainKeys := run(false)
	obsTraces, obsKeys := run(true)
	if len(plainTraces) != len(obsTraces) {
		t.Fatalf("trace lengths differ: %d vs %d", len(plainTraces), len(obsTraces))
	}
	for i := range plainTraces {
		if plainTraces[i] != obsTraces[i] {
			t.Fatalf("trace %d differs under observation: %+v vs %+v",
				i, plainTraces[i], obsTraces[i])
		}
	}
	if len(plainKeys) != len(obsKeys) {
		t.Fatalf("designs differ: %d vs %d structures", len(plainKeys), len(obsKeys))
	}
	for k := range plainKeys {
		if !obsKeys[k] {
			t.Fatalf("design differs under observation: missing %s", k)
		}
	}
}
