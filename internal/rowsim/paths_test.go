package rowsim

import (
	"runtime"
	"testing"

	"cliffguard/internal/datagen"
	"cliffguard/internal/designer/designertest"
	"cliffguard/internal/obs"
)

// TestPathsMatchCost: over seeded random queries (unsupported ones
// included) and the designer's own candidate pool, Paths reproduces Cost
// bit-for-bit — the premise of the designers' direct pair tables. It runs
// at full scale and at the DBMS-X row fraction, which scales every access
// path's row counts.
func TestPathsMatchCost(t *testing.T) {
	// golden pins the costs themselves to their values before the per-query
	// terms were hoisted out of the access paths. Architectures that fuse
	// multiply-adds may round differently, so the values are amd64's.
	golden := map[float64]uint64{1: 0x1cff5b18497de7bf, 0.15: 0xc5fc8acfb4612781}
	for _, frac := range []float64{1, 0.15} {
		db := Open(datagen.Warehouse(1))
		db.RowFraction = frac
		met := obs.NewMetrics()
		db.Instrument(met)
		qs := designertest.Queries(db.Schema, 1, 600)
		pool := NewDesigner(db, 1<<40).Candidates(designertest.Supported(db, qs))
		served := designertest.CheckPaths(t, db, met.CostModelCalls.Load, qs, pool)
		t.Logf("%d of %d queries supported; via served %d cells of a %d-structure pool", designertest.Supported(db, qs).Len(), len(qs), served, len(pool))
		if served == 0 {
			t.Fatalf("fraction %g: no structure of the %d-structure pool served any query", frac, len(pool))
		}
		if got := designertest.CostFingerprint(db, qs, pool); runtime.GOARCH == "amd64" && got != golden[frac] {
			t.Fatalf("fraction %g: cost fingerprint %#x, want %#x: a what-if cost changed", frac, got, golden[frac])
		}
	}
}
