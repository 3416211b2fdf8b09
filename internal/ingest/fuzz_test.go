package ingest_test

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"cliffguard/internal/datagen"
	"cliffguard/internal/designer"
	"cliffguard/internal/ingest"
	"cliffguard/internal/vertsim"
	"cliffguard/internal/workload"
)

// FuzzReader drives the statement scanner with arbitrary multi-line logs
// against the R1 warehouse schema. Whatever the bytes, Reader must not
// panic; it spends at most one statement attempt per non-blank, non-comment
// line; every query it returns satisfies the clause-set invariant the
// engines' allocation-free what-if path relies on (its clause sets union to
// exactly Spec.ReferencedCols()); and the columnar cost model prices each
// one or rejects it with ErrUnsupported, never a NaN or infinite cost.
func FuzzReader(f *testing.F) {
	for _, seed := range []string{
		"",
		"SELECT sale_id FROM sales WHERE store_id = 4",
		"2025-03-01T00:00:00Z\tSELECT region, COUNT(*) FROM sales WHERE sale_date BETWEEN 10 AND 40 GROUP BY region\n" +
			"2025-03-01T00:05:00Z\tSELECT COUNT(*), SUM(event_hour) FROM events WHERE api_method BETWEEN 'v17' AND 'v77'\n",
		"SELECT region,\n       SUM(total)\nFROM sales\nWHERE channel = 'web'\nGROUP BY region\nORDER BY region DESC;\n",
		"-- nightly report\nSELECT COUNT(*) FROM sales;\n\nGARBAGE LINE\nSELECT quantity FROM sales ORDER BY quantity LIMIT 3\n",
		"SELECT s.total FROM sales s JOIN customers c ON s.customer_id = c.customers_key WHERE c.segment = 'x';",
		"not sql at all\nstill not sql\nSELECT\nFROM sales;\n   \n--\n;",
		"2025-03-01T00:00:00Z\tSELECT sale_id FROM sales WHERE nope = 1\r\nSELECT sale_id, sale_id FROM sales WHERE sale_id = 1 AND sale_id > 0\r\n",
	} {
		f.Add(seed)
	}
	s := datagen.Warehouse(1)
	db := vertsim.Open(s)
	f.Fuzz(func(t *testing.T, log string) {
		w, st, err := ingest.Reader(s, strings.NewReader(log), ingest.Options{FirstID: 1})
		lines := 0
		for _, line := range strings.Split(log, "\n") {
			if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "--") {
				lines++
			}
		}
		if st.Attempts() > lines {
			t.Fatalf("%d statement attempts from %d non-blank, non-comment lines", st.Attempts(), lines)
		}
		if err != nil {
			return // an empty or unreadable log is rejected, not a crash
		}
		for _, it := range w.Items {
			q := it.Q
			ref := q.Spec.ReferencedCols()
			var got []int
			q.EachColumn(func(c int) bool { got = append(got, c); return true })
			if !slices.Equal(got, ref) || !q.ColumnsWithin(workload.NewColSet(ref...)) {
				t.Fatalf("%v: clause sets yield %v, spec references %v", q, got, ref)
			}
			c, err := db.Cost(context.Background(), q, nil)
			if err != nil {
				if !errors.Is(err, designer.ErrUnsupported) {
					t.Fatalf("%v: cost error %v, want nil or ErrUnsupported", q, err)
				}
				continue
			}
			if math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatalf("%v: cost %v", q, c)
			}
		}
	})
}
