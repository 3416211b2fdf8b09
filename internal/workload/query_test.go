package workload

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// randomSpec draws a spec over column IDs 0..149 (three bitset words) with
// every shape the clause-set invariant must survive: COUNT(*) (Col -1),
// columns repeated within and across clauses, and empty clause lists,
// including an empty select list.
func randomSpec(rng *rand.Rand) *Spec {
	col := func() int { return rng.Intn(150) }
	cols := func(max int) []int {
		out := make([]int, rng.Intn(max+1))
		for i := range out {
			out[i] = col()
			if i > 0 && rng.Intn(4) == 0 {
				out[i] = out[i-1] // duplicate column
			}
		}
		return out
	}
	spec := &Spec{Table: "t", SelectCols: cols(4), GroupBy: cols(3)}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		a := Agg{Fn: AggFn(rng.Intn(5)), Col: col()}
		if rng.Intn(3) == 0 {
			a = Agg{Fn: Count, Col: -1}
		}
		spec.Aggs = append(spec.Aggs, a)
	}
	for _, c := range cols(4) {
		spec.Preds = append(spec.Preds, Pred{Col: c, Op: CmpOp(rng.Intn(6)), Sel: rng.Float64()})
	}
	for _, c := range cols(2) {
		spec.OrderBy = append(spec.OrderBy, OrderCol{Col: c, Desc: rng.Intn(2) == 0})
	}
	return spec
}

// TestClauseSetInvariant pins the contract the engines' allocation-free
// what-if path rests on: for a FromSpec query, ColumnsWithin(s) holds exactly
// when every ReferencedCols id is in s, and EachColumn yields ReferencedCols
// in order.
func TestClauseSetInvariant(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := randomSpec(rng)
		q := FromSpec(1, time.Time{}, spec)
		ref := spec.ReferencedCols()

		var got []int
		q.EachColumn(func(c int) bool { got = append(got, c); return true })
		if !slices.Equal(got, ref) {
			t.Logf("seed %d: EachColumn = %v, ReferencedCols = %v", seed, got, ref)
			return false
		}
		if len(ref) > 0 {
			// Early stop: returning false ends the walk at that column.
			stop := rng.Intn(len(ref))
			var seen []int
			q.EachColumn(func(c int) bool { seen = append(seen, c); return len(seen) <= stop })
			if !slices.Equal(seen, ref[:stop+1]) {
				t.Logf("seed %d: early stop at %d yielded %v", seed, stop, seen)
				return false
			}
		}

		// Candidate sets: a random subset (with and without every referenced
		// column), the exact referenced set, and the empty set.
		var s ColSet
		for c := 0; c < 150; c++ {
			if rng.Intn(2) == 0 {
				s.Add(c)
			}
		}
		withRef := s.Clone()
		for _, c := range ref {
			withRef.Add(c)
		}
		for _, set := range []ColSet{s, withRef, NewColSet(ref...), {}} {
			want := true
			for _, c := range ref {
				want = want && set.Has(c)
			}
			if q.ColumnsWithin(set) != want {
				t.Logf("seed %d: ColumnsWithin(%v) = %v, want %v (ref %v)", seed, set, !want, want, ref)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestColumnsWithinAndEachColumnDoNotAllocate(t *testing.T) {
	q := FromSpec(1, time.Time{}, specOn("t", []int{1, 70}, []int{3, 140}, []int{70}, []int{5}))
	within := NewColSet(1, 3, 5, 70, 140)
	var sum int
	allocs := testing.AllocsPerRun(100, func() {
		if !q.ColumnsWithin(within) {
			t.Fatal("query should lie within its own columns")
		}
		q.EachColumn(func(c int) bool { sum += c; return true })
	})
	if allocs != 0 {
		t.Errorf("ColumnsWithin + EachColumn allocate %v times per call, want 0", allocs)
	}
}
