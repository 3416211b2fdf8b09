package evalcache

import (
	"context"
	"errors"
	"testing"
	"time"

	"cliffguard/internal/designer"
	"cliffguard/internal/workload"
)

// Test aliases mirroring the cliffguard facade's public EvalGeneration and
// EvalGenerationKey: TestNilGenerationIsInert pins that a nil memo is empty
// and inert under those names.
type (
	Generation    = Shared
	GenerationKey = SharedKey
)

// genQuery builds a small query whose content differs per col, with its own
// fresh pointer each call — the cross-run situation the content key exists
// for (same content, different *Query identity).
func genQuery(col int) *workload.Query {
	return workload.FromSpec(workload.NextID(), time.Time{}, &workload.Spec{
		Table:      "facts",
		SelectCols: []int{col},
		Preds: []workload.Pred{
			{Col: col, Op: workload.Eq, Lo: 7, Hi: 7, Sel: 0.01},
		},
	})
}

// contentCost is a pure cost model over query content (not pointer or ID):
// cost is a function of the first selected column, column 9 is
// unsupported, and a query in fail gets a hard error. It counts calls.
type contentCost struct {
	fail  map[*workload.Query]error
	calls int
}

func (m *contentCost) Cost(_ context.Context, q *workload.Query, d *designer.Design) (float64, error) {
	m.calls++
	if err := m.fail[q]; err != nil {
		return 0, err
	}
	col := q.Spec.SelectCols[0]
	if col == 9 {
		return 0, designer.ErrUnsupported
	}
	return 1.5 + float64(col) + float64(d.Len()), nil
}

// classedCost is contentCost with a class fingerprint, as engines carry.
type classedCost struct {
	contentCost
	class uint64
}

func (m *classedCost) Class() uint64 { return m.class }

// stubStructure is a minimal designer.Structure.
type stubStructure string

func (s stubStructure) Key() string      { return string(s) }
func (s stubStructure) SizeBytes() int64 { return 1 }
func (s stubStructure) Describe() string { return string(s) }

// designs returns two designs with distinct fingerprints.
func designs() (*designer.Design, *designer.Design) {
	return designer.NewDesign(), designer.NewDesign(stubStructure("idx"))
}

// TestGenerationExportAndWarmLookup: outcomes a first wrapper recorded into
// its write memo answer a second wrapper's calls on fresh query pointers
// with the same content — costs and the unsupported verdict alike — without
// calling the model, and a read hit is copied into a distinct write memo.
func TestGenerationExportAndWarmLookup(t *testing.T) {
	ctx := context.Background()
	d0, d1 := designs()
	gen := NewShared()
	cold := &contentCost{}
	first := Over(cold, nil, gen)
	want := map[[2]int]float64{}
	for col := 0; col < 2; col++ {
		for i, d := range []*designer.Design{d0, d1} {
			c, err := first.Cost(ctx, genQuery(col), d)
			if err != nil {
				t.Fatal(err)
			}
			want[[2]int{col, i}] = c
		}
	}
	if _, err := first.Cost(ctx, genQuery(9), d0); !errors.Is(err, designer.ErrUnsupported) {
		t.Fatalf("unsupported query: err = %v", err)
	}
	if gen.Len() != 5 || first.Hits() != 0 || first.Misses() != 5 || cold.calls != 5 {
		t.Fatalf("cold wrapper: %d entries, %d hits, %d misses, %d model calls; want 5/0/5/5",
			gen.Len(), first.Hits(), first.Misses(), cold.calls)
	}

	// The next run sees fresh query pointers with the same content.
	r0 := genQuery(0)
	if workload.ContentHash(r0) != workload.ContentHash(genQuery(0)) {
		t.Fatal("re-built query content hash differs — test premise broken")
	}
	warm := &contentCost{}
	next := NewShared()
	second := Over(warm, gen, next)
	for col := 0; col < 2; col++ {
		for i, d := range []*designer.Design{d0, d1} {
			c, err := second.Cost(ctx, genQuery(col), d)
			if err != nil || c != want[[2]int{col, i}] {
				t.Fatalf("warm (col %d, design %d) = (%g, %v), want %g", col, i, c, err, want[[2]int{col, i}])
			}
		}
	}
	if c, err := second.Cost(ctx, genQuery(9), d0); c != 0 || !errors.Is(err, designer.ErrUnsupported) {
		t.Fatalf("warm unsupported query = (%g, %v), want the memoized verdict", c, err)
	}
	if warm.calls != 0 || second.Hits() != 5 || second.Misses() != 0 {
		t.Fatalf("warm wrapper: %d model calls, %d hits, %d misses; want 0/5/0", warm.calls, second.Hits(), second.Misses())
	}
	// Promotion: every read hit was copied into the distinct write memo.
	if next.Len() != 5 {
		t.Fatalf("write memo holds %d entries after 5 read hits, want 5", next.Len())
	}
}

// TestWarmLookupMissesUnknownPairs: a recorded outcome answers only its own
// (class, content, design) key.
func TestWarmLookupMissesUnknownPairs(t *testing.T) {
	ctx := context.Background()
	d0, d1 := designs()
	gen := NewShared()
	if _, err := Over(&classedCost{class: 1}, nil, gen).Cost(ctx, genQuery(0), d0); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		class uint64
		q     *workload.Query
		d     *designer.Design
	}{
		{"other design", 1, genQuery(0), d1},
		{"other query", 1, genQuery(5), d0},
		{"other class", 2, genQuery(0), d0},
	} {
		cm := &classedCost{class: tc.class}
		m := Over(cm, gen, nil)
		if _, err := m.Cost(ctx, tc.q, tc.d); err != nil {
			t.Fatal(err)
		}
		if m.Hits() != 0 || m.Misses() != 1 || cm.calls != 1 {
			t.Errorf("%s: %d hits, %d misses, %d model calls; want 0/1/1", tc.name, m.Hits(), m.Misses(), cm.calls)
		}
	}
	cm := &classedCost{class: 1}
	m := Over(cm, gen, nil)
	if _, err := m.Cost(ctx, genQuery(0), d0); err != nil || m.Hits() != 1 || cm.calls != 0 {
		t.Fatalf("the recorded key itself: err %v, %d hits, %d model calls; want a hit", err, m.Hits(), cm.calls)
	}
}

// TestMemoCostHardErrorNeverStored: a hard cost-model error is returned to
// the caller and leaves no entry, so the next call asks the model again.
func TestMemoCostHardErrorNeverStored(t *testing.T) {
	ctx := context.Background()
	d0, _ := designs()
	q := genQuery(3)
	boom := errors.New("boom")
	cm := &contentCost{fail: map[*workload.Query]error{q: boom}}
	memo := NewShared()
	m := Over(cm, memo, memo)
	if _, err := m.Cost(ctx, q, d0); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if memo.Len() != 0 {
		t.Fatalf("hard error stored: memo holds %d entries", memo.Len())
	}
	delete(cm.fail, q)
	if _, err := m.Cost(ctx, q, d0); err != nil || cm.calls != 2 || memo.Len() != 1 {
		t.Fatalf("retry: err %v, %d model calls, %d entries; want nil/2/1", err, cm.calls, memo.Len())
	}
}

// TestExportOverwriteIsIdempotent: recording the same outcome twice — two
// wrappers missing on the same content — leaves one identical entry.
func TestExportOverwriteIsIdempotent(t *testing.T) {
	ctx := context.Background()
	d0, _ := designs()
	gen := NewShared()
	var costs [2]float64
	for i := range costs {
		c, err := Over(&contentCost{}, nil, gen).Cost(ctx, genQuery(2), d0)
		if err != nil {
			t.Fatal(err)
		}
		costs[i] = c
	}
	if gen.Len() != 1 {
		t.Fatalf("memo holds %d entries after a duplicate write, want 1", gen.Len())
	}
	cost, _, ok := gen.Lookup(SharedKey{Query: workload.ContentHash(genQuery(2)), Design: d0.Fingerprint()})
	if !ok || cost != costs[0] || costs[0] != costs[1] {
		t.Fatalf("lookup = (%g, %v), want (%g, true)", cost, ok, costs[0])
	}
}

// TestNilGenerationIsInert: a nil memo is empty, drops writes, and a
// wrapper over two nil memos passes every call through.
func TestNilGenerationIsInert(t *testing.T) {
	var g *Generation
	if g.Len() != 0 {
		t.Fatal("nil memo has non-zero length")
	}
	g.Store(GenerationKey{}, 1, false)
	if _, _, ok := g.Lookup(GenerationKey{}); ok {
		t.Fatal("nil memo lookup reported a hit")
	}
	d0, _ := designs()
	cm := &contentCost{}
	m := Over(cm, nil, nil)
	for i := 0; i < 2; i++ {
		if _, err := m.Cost(context.Background(), genQuery(0), d0); err != nil {
			t.Fatal(err)
		}
	}
	if cm.calls != 2 || m.Hits() != 0 || m.Misses() != 2 {
		t.Fatalf("nil memos: %d model calls, %d hits, %d misses; want 2/0/2", cm.calls, m.Hits(), m.Misses())
	}
}

// TestMemoCostNeverWritesRead: with distinct memos, misses and hits alike
// land only in write; read is never written.
func TestMemoCostNeverWritesRead(t *testing.T) {
	ctx := context.Background()
	d0, d1 := designs()
	read := NewShared()
	if _, err := Over(&contentCost{}, nil, read).Cost(ctx, genQuery(0), d0); err != nil {
		t.Fatal(err)
	}
	write := NewShared()
	m := Over(&contentCost{}, read, write)
	for _, q := range []*workload.Query{genQuery(0), genQuery(1), genQuery(9)} {
		for _, d := range []*designer.Design{d0, d1} {
			_, _ = m.Cost(ctx, q, d) // column 9's ErrUnsupported is an expected outcome
		}
	}
	if read.Len() != 1 {
		t.Fatalf("read memo grew to %d entries, want 1", read.Len())
	}
	if write.Len() != 6 || m.Hits() != 1 || m.Misses() != 5 {
		t.Fatalf("write memo %d entries, %d hits, %d misses; want 6/1/5", write.Len(), m.Hits(), m.Misses())
	}
}
