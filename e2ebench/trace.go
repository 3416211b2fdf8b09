package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the traced run's spans in memory and writes them as JSONL when
// the benchmark exits. A nil *tracer is the untraced run: every method is a
// no-op and the benchmark hands the program its raw interfaces.
//
// Spans are recorded only by the benchmark's own code, around its calls into
// a layer. Calls too frequent for a span each (cost-model and distance calls)
// are folded into a count, a busy time and a wall-clock coverage on the span
// that encloses them.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	// cur is the innermost span the benchmark's driving goroutine has open;
	// distance calls carry no context, so they fold into it.
	cur atomic.Pointer[span]

	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// span is one operation. Parent 0 means a root.
type span struct {
	ID     uint64
	Parent uint64
	Name   string
	Start  time.Time
	End    time.Time

	folds [numFolds]fold
}

// Kinds of folded calls.
const (
	foldCost    = iota // evaluation-path cost-model calls
	foldDist           // distance-metric calls
	foldObserve        // online-controller Observe calls
	numFolds
)

var foldNames = [numFolds]string{"costmodel", "distance", "observe"}

// fold accumulates many short calls on their enclosing span: how many, their
// summed duration (busy), and the wall-clock time during which at least one
// was in flight (wall). With parallel callers busy can exceed wall; wall is
// what adds up against the span's own duration.
type fold struct {
	mu       sync.Mutex
	inflight int
	since    time.Time
	calls    int64
	busy     time.Duration
	wall     time.Duration
}

func (f *fold) enter() time.Time {
	t := time.Now()
	f.mu.Lock()
	if f.inflight == 0 {
		f.since = t
	}
	f.inflight++
	f.mu.Unlock()
	return t
}

func (f *fold) exit(start time.Time) {
	t := time.Now()
	f.mu.Lock()
	f.inflight--
	f.calls++
	f.busy += t.Sub(start)
	if f.inflight == 0 {
		f.wall += t.Sub(f.since)
	}
	f.mu.Unlock()
}

func (f *fold) totals() (calls int64, busy, wall time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls, f.busy, f.wall
}

type spanKey struct{}

// start opens a span named name as a child of the span carried by ctx and
// returns a context carrying the new span. The new span becomes the current
// span until end.
func (t *tracer) start(ctx context.Context, name string) (context.Context, *span) {
	if t == nil {
		return ctx, nil
	}
	s := &span{ID: t.nextID.Add(1), Name: name, Start: time.Now()}
	if p, ok := ctx.Value(spanKey{}).(*span); ok {
		s.Parent = p.ID
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	t.cur.Store(s)
	return context.WithValue(ctx, spanKey{}, s), s
}

// end closes s and makes its parent (as carried by ctx) current again.
func (t *tracer) end(ctx context.Context, s *span) {
	if t == nil || s == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	s.End = end
	t.mu.Unlock()
	p, _ := ctx.Value(spanKey{}).(*span)
	t.cur.Store(p)
}

// enclosing returns the span a folded call belongs to: the one carried by
// ctx, else the current span.
func (t *tracer) enclosing(ctx context.Context) *span {
	if s, ok := ctx.Value(spanKey{}).(*span); ok {
		return s
	}
	return t.cur.Load()
}

// foldTotal is the sum of one kind of folded call over several spans.
type foldTotal struct {
	calls      int64
	busy, wall time.Duration
}

// layerTotals sums, over all closed spans named name, their durations and
// their folded calls.
type layerTotals struct {
	count int
	dur   time.Duration
	folds [numFolds]foldTotal
}

func (t *tracer) totals(name string) layerTotals {
	var out layerTotals
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.End.IsZero() || s.Name != name {
			continue
		}
		out.count++
		out.dur += s.End.Sub(s.Start)
		for k := range s.folds {
			n, b, w := s.folds[k].totals()
			f := &out.folds[k]
			f.calls, f.busy, f.wall = f.calls+n, f.busy+b, f.wall+w
		}
	}
	return out
}

// spanRecord is one JSONL line. Times are microseconds since the tracer's
// epoch. SelfUs is the span's duration minus the time its child spans cover.
type spanRecord struct {
	ID      uint64                `json:"id"`
	Parent  uint64                `json:"parent,omitempty"`
	Name    string                `json:"name"`
	StartUs int64                 `json:"start_us"`
	EndUs   int64                 `json:"end_us"`
	SelfUs  int64                 `json:"self_us"`
	Folded  map[string]foldRecord `json:"folded,omitempty"`
}

// foldRecord is one kind of folded call on a span record.
type foldRecord struct {
	Calls  int64 `json:"calls"`
	BusyUs int64 `json:"busy_us"`
	WallUs int64 `json:"wall_us"`
}

// records renders the closed spans with their self times. Child spans of one
// parent never overlap (the benchmark drives each layer from one goroutine
// per client), so self time is the duration minus the children's sum.
func (t *tracer) records() []spanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	childDur := make(map[uint64]time.Duration)
	for _, s := range t.spans {
		if !s.End.IsZero() && s.Parent != 0 {
			childDur[s.Parent] += s.End.Sub(s.Start)
		}
	}
	us := func(d time.Duration) int64 { return d.Microseconds() }
	out := make([]spanRecord, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End.IsZero() {
			continue
		}
		dur := s.End.Sub(s.Start)
		self := dur - childDur[s.ID]
		if self < 0 {
			self = 0
		}
		r := spanRecord{
			ID: s.ID, Parent: s.Parent, Name: s.Name,
			StartUs: us(s.Start.Sub(t.epoch)), EndUs: us(s.End.Sub(t.epoch)), SelfUs: us(self),
		}
		for k := range s.folds {
			if n, b, w := s.folds[k].totals(); n > 0 {
				if r.Folded == nil {
					r.Folded = map[string]foldRecord{}
				}
				r.Folded[foldNames[k]] = foldRecord{Calls: n, BusyUs: us(b), WallUs: us(w)}
			}
		}
		out = append(out, r)
	}
	return out
}

// writeJSONL writes every closed span to path, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, r := range t.records() {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
