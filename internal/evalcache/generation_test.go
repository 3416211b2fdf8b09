package evalcache

import (
	"testing"
	"time"

	"cliffguard/internal/workload"
)

// Test aliases mirroring the cliffguard facade's public EvalGeneration and
// EvalGenerationKey: TestNilGenerationIsInert pins that a nil warm-start
// memo is empty and inert under those names.
type (
	Generation    = Shared
	GenerationKey = SharedKey
)

// genQuery builds a small query whose content differs per col, with its own
// fresh pointer each call — the cross-run situation the generation handoff
// exists for (same content, different *Query identity).
func genQuery(col int) *workload.Query {
	return workload.FromSpec(workload.NextID(), time.Time{}, &workload.Spec{
		Table:      "facts",
		SelectCols: []int{col},
		Preds: []workload.Pred{
			{Col: col, Op: workload.Eq, Lo: 7, Hi: 7, Sel: 0.01},
		},
	})
}

func TestGenerationExportAndWarmLookup(t *testing.T) {
	src := New()
	q0, q1 := genQuery(0), genQuery(1)
	src.Store(q0, 100, 1.5, false)
	src.Store(q0, 200, 2.5, false)
	src.Store(q1, 100, 0, true) // memoized unsupported verdict

	gen := NewShared()
	src.ExportInto(gen)
	if gen.Len() != 3 {
		t.Fatalf("generation holds %d pairs, want 3", gen.Len())
	}

	// The next run sees fresh query pointers with the same content.
	r0, r1 := genQuery(0), genQuery(1)
	if workload.ContentHash(r0) != workload.ContentHash(q0) {
		t.Fatal("re-parsed query content hash differs — test premise broken")
	}
	dst := New()
	dst.SetWarm(gen)

	cost, unsupported, ok := dst.Lookup(r0, 100)
	if !ok || unsupported || cost != 1.5 {
		t.Fatalf("warm lookup (q0, 100) = (%g, %v, %v), want (1.5, false, true)", cost, unsupported, ok)
	}
	cost, unsupported, ok = dst.Lookup(r0, 200)
	if !ok || unsupported || cost != 2.5 {
		t.Fatalf("warm lookup (q0, 200) = (%g, %v, %v), want (2.5, false, true)", cost, unsupported, ok)
	}
	if _, unsupported, ok = dst.Lookup(r1, 100); !ok || !unsupported {
		t.Fatalf("warm lookup (q1, 100): ok=%v unsupported=%v, want the memoized unsupported verdict", ok, unsupported)
	}
	if got := dst.WarmHits(); got != 3 {
		t.Fatalf("WarmHits = %d, want 3", got)
	}

	// Promotion: a repeated lookup is served by the shard, not the generation.
	if _, _, ok := dst.Lookup(r0, 100); !ok {
		t.Fatal("promoted entry missing from the shard")
	}
	if got := dst.WarmHits(); got != 3 {
		t.Fatalf("WarmHits after promoted lookup = %d, want still 3", got)
	}
	// Warm hits count as cache hits: 4 lookups, 4 hits, 0 misses.
	if st := dst.Stats(); st.Hits != 4 || st.Misses != 0 {
		t.Fatalf("stats = %d hits / %d misses, want 4 / 0", st.Hits, st.Misses)
	}
}

func TestWarmLookupMissesUnknownPairs(t *testing.T) {
	gen := NewShared()
	src := New()
	src.Store(genQuery(0), 100, 1, false)
	src.ExportInto(gen)

	dst := New()
	dst.SetWarm(gen)
	// Same query content, different design fingerprint: not in the generation.
	if _, _, ok := dst.Lookup(genQuery(0), 999); ok {
		t.Fatal("lookup under an unexported fingerprint hit the warm generation")
	}
	// Different query content under an exported fingerprint.
	if _, _, ok := dst.Lookup(genQuery(5), 100); ok {
		t.Fatal("lookup of an unexported query hit the warm generation")
	}
	if dst.WarmHits() != 0 {
		t.Fatalf("WarmHits = %d, want 0", dst.WarmHits())
	}
}

func TestExportOverwriteIsIdempotent(t *testing.T) {
	gen := NewShared()
	src := New()
	q := genQuery(2)
	src.Store(q, 100, 3.25, false)
	src.ExportInto(gen)
	src.ExportInto(gen) // duplicate export writes the identical entry
	if gen.Len() != 1 {
		t.Fatalf("generation holds %d pairs after duplicate export, want 1", gen.Len())
	}
	cost, _, ok := gen.Lookup(SharedKey{Query: workload.ContentHash(q), Design: 100})
	if !ok || cost != 3.25 {
		t.Fatalf("lookup = (%g, %v), want (3.25, true)", cost, ok)
	}
}

func TestNilGenerationIsInert(t *testing.T) {
	var g *Generation
	if g.Len() != 0 {
		t.Fatal("nil generation has non-zero length")
	}
	if _, _, ok := g.Lookup(GenerationKey{}); ok {
		t.Fatal("nil generation lookup reported a hit")
	}
	c := New()
	c.SetWarm(nil) // disables the fallback
	if _, _, ok := c.Lookup(genQuery(0), 1); ok {
		t.Fatal("lookup hit with a nil warm generation")
	}
	c.ExportInto(nil) // no-op
}
