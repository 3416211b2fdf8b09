package aqesim

import (
	"runtime"
	"testing"

	"cliffguard/internal/datagen"
	"cliffguard/internal/designer/designertest"
	"cliffguard/internal/obs"
)

// TestPathsMatchCost: over seeded random queries (unsupported ones
// included) and the designer's own candidate pool, Paths reproduces Cost
// bit-for-bit — the premise of the designers' direct pair tables.
func TestPathsMatchCost(t *testing.T) {
	db := Open(datagen.Warehouse(1))
	met := obs.NewMetrics()
	db.Instrument(met)
	qs := designertest.Queries(db.Schema, 1, 600)
	pool := NewDesigner(db, 1<<40).Candidates(designertest.Supported(db, qs))
	served := designertest.CheckPaths(t, db, met.CostModelCalls.Load, qs, pool)
	t.Logf("%d of %d queries supported; via served %d cells of a %d-structure pool", designertest.Supported(db, qs).Len(), len(qs), served, len(pool))
	if served == 0 {
		t.Fatalf("no sample of the %d-structure pool served any query", len(pool))
	}
	// The costs themselves are pinned to their values before the per-query
	// terms were hoisted out of the path cost. Architectures that fuse
	// multiply-adds may round differently, so the golden value is amd64's.
	if got := designertest.CostFingerprint(db, qs, pool); runtime.GOARCH == "amd64" && got != 0x1ef6cdabdcc09042 {
		t.Fatalf("cost fingerprint %#x, want 0x1ef6cdabdcc09042: a what-if cost changed", got)
	}
}
