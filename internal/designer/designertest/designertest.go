// Package designertest checks an engine's designer.PathCoster capability
// against the black-box what-if contract it shortcuts: over seeded random
// queries (supported and not) and a structure pool, Paths must reproduce
// Cost bit-for-bit. Each engine package runs CheckPaths over its own
// candidate pool.
package designertest

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"cliffguard/internal/designer"
	"cliffguard/internal/schema"
	"cliffguard/internal/workload"
)

// Queries draws n seeded random queries over s. Most are anchored on one of
// s's tables and reference only its columns, with every clause shape the
// cost models branch on: COUNT(*), grouped and ungrouped aggregates, ORDER
// BY, equality and range predicates, and selectivities outside (0, 1] that
// the engines clamp. About one in eight is outside every engine's costable
// subset: a nil spec, an unknown table, or a column of another table. About
// a third are near-variants of an earlier query (a clause dropped, a
// selectivity redrawn), so that structures built for one query also serve
// others, as they do in real template families.
func Queries(s *schema.Schema, seed int64, n int) []*workload.Query {
	rng := rand.New(rand.NewSource(seed))
	tables := s.Tables()
	out := make([]*workload.Query, 0, n)
	var specs []*workload.Spec
	for len(out) < n {
		if len(specs) > 0 && rng.Intn(3) == 0 {
			out = append(out, workload.FromSpec(workload.NextID(), time.Time{}, variant(rng, specs[rng.Intn(len(specs))])))
			continue
		}
		t := tables[rng.Intn(len(tables))]
		ids := t.ColumnIDs()
		col := func() int { return ids[rng.Intn(len(ids))] }
		cols := func(max int) []int {
			c := make([]int, rng.Intn(max+1))
			for i := range c {
				c[i] = col()
			}
			return c
		}
		spec := &workload.Spec{Table: t.Name, SelectCols: cols(3), GroupBy: cols(2)}
		for i, k := 0, rng.Intn(3); i < k; i++ {
			a := workload.Agg{Fn: workload.AggFn(rng.Intn(5)), Col: col()}
			if rng.Intn(3) == 0 {
				a = workload.Agg{Fn: workload.Count, Col: -1}
			}
			spec.Aggs = append(spec.Aggs, a)
		}
		for _, c := range cols(4) {
			sel := rng.Float64()
			switch rng.Intn(8) {
			case 0:
				sel = 0
			case 1:
				sel = 1.5
			case 2:
				sel = 1e-6
			}
			spec.Preds = append(spec.Preds, workload.Pred{Col: c, Op: workload.CmpOp(rng.Intn(6)), Sel: sel})
		}
		for _, c := range cols(2) {
			spec.OrderBy = append(spec.OrderBy, workload.OrderCol{Col: c, Desc: rng.Intn(2) == 0})
		}
		if len(spec.SelectCols)+len(spec.Aggs) == 0 {
			spec.SelectCols = []int{col()}
		}
		switch rng.Intn(24) {
		case 0:
			out = append(out, &workload.Query{ID: workload.NextID()})
			continue
		case 1:
			spec.Table = "no_such_table"
		case 2:
			other := tables[rng.Intn(len(tables))]
			oids := other.ColumnIDs()
			spec.SelectCols = append(spec.SelectCols, oids[rng.Intn(len(oids))])
		}
		specs = append(specs, spec)
		out = append(out, workload.FromSpec(workload.NextID(), time.Time{}, spec))
	}
	return out
}

// variant copies spec with one clause entry dropped and its predicate
// selectivities redrawn.
func variant(rng *rand.Rand, spec *workload.Spec) *workload.Spec {
	v := *spec
	drop := func(xs []int) []int {
		if len(xs) < 2 {
			return append([]int(nil), xs...)
		}
		i := rng.Intn(len(xs))
		return append(append([]int(nil), xs[:i]...), xs[i+1:]...)
	}
	v.SelectCols, v.GroupBy = drop(spec.SelectCols), drop(spec.GroupBy)
	v.Aggs = append([]workload.Agg(nil), spec.Aggs...)
	v.OrderBy = append([]workload.OrderCol(nil), spec.OrderBy...)
	v.Preds = nil
	for _, p := range spec.Preds {
		if rng.Intn(4) == 0 {
			continue
		}
		p.Sel = rng.Float64()
		v.Preds = append(v.Preds, p)
	}
	return &v
}

// Supported returns the workload of qs the cost model can cost under the
// empty design, each at weight 1: the input an engine's Candidates builds
// its pool from.
func Supported(cm designer.CostModel, qs []*workload.Query) *workload.Workload {
	w := &workload.Workload{}
	for _, q := range qs {
		if _, err := cm.Cost(context.Background(), q, nil); err == nil {
			w.Add(q, 1)
		}
	}
	return w
}

// CostFingerprint hashes Cost(q, nil) and Cost(q, NewDesign(s)) for every
// query of qs and structure of pool, bit-for-bit (an error hashes as a
// marker): a golden value that pins an engine's what-if costs, so a
// refactor of its cost path can prove it changed no float. The value also
// depends on qs and pool, so a change to Queries moves every golden value.
func CostFingerprint(cm designer.CostModel, qs []*workload.Query, pool []designer.Structure) uint64 {
	ctx := context.Background()
	h := uint64(14695981039346656037)
	mix := func(c float64, err error) {
		v := math.Float64bits(c)
		if err != nil {
			v = 0xdead
		}
		for shift := 0; shift < 64; shift += 8 {
			h = (h ^ (v >> shift & 0xff)) * 1099511628211
		}
	}
	for _, q := range qs {
		mix(cm.Cost(ctx, q, nil))
		for _, s := range pool {
			mix(cm.Cost(ctx, q, designer.NewDesign(s)))
		}
	}
	return h
}

// foreign is a structure no engine knows, so every via must refuse it.
type foreign struct{}

func (foreign) Key() string      { return "designertest:foreign" }
func (foreign) SizeBytes() int64 { return 1 }
func (foreign) Describe() string { return "FOREIGN" }

// CheckPaths asserts the PathCoster contract for every query in qs: Paths'
// base equals Cost(q, nil) bit-for-bit, and an unsupported query fails both
// with designer.ErrUnsupported; and for every structure of pool (plus one
// structure of no engine's type), min(base, via(s)) under the engines'
// strict-< fold equals Cost(q, NewDesign(s)) bit-for-bit. It returns how
// many (query, structure) cells via served, so callers can require that
// the pool actually exercised the covering branch. calls reads the engine's
// cost-model call counter: each Paths call must count exactly one call, as
// Cost does, and via calls none.
func CheckPaths(t testing.TB, pc designer.PathCoster, calls func() uint64, qs []*workload.Query, pool []designer.Structure) (served int) {
	t.Helper()
	ctx := context.Background()
	pool = append(append([]designer.Structure(nil), pool...), foreign{})
	for _, q := range qs {
		want, wantErr := pc.Cost(ctx, q, nil)
		before := calls()
		base, via, err := pc.Paths(ctx, q)
		if n := calls() - before; n != 1 {
			t.Fatalf("query %v: Paths counted %d cost-model calls, want 1", q, n)
		}
		if errors.Is(wantErr, designer.ErrUnsupported) != errors.Is(err, designer.ErrUnsupported) || (wantErr == nil) != (err == nil) {
			t.Fatalf("query %v: Paths err %v, Cost err %v", q, err, wantErr)
		}
		if err != nil {
			continue
		}
		if math.Float64bits(base) != math.Float64bits(want) {
			t.Fatalf("query %v: Paths base %v, Cost(q, nil) %v", q, base, want)
		}
		for _, s := range pool {
			got := base
			before := calls()
			v, ok := via(s)
			if n := calls() - before; n != 0 {
				t.Fatalf("query %v: via counted %d cost-model calls, want 0", q, n)
			}
			if ok {
				served++
				if v < got {
					got = v
				}
			}
			want, err := pc.Cost(ctx, q, designer.NewDesign(s))
			if err != nil {
				t.Fatalf("query %v under %s: %v", q, s.Key(), err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("query %v under %s: min(base, via) %v, Cost %v", q, s.Key(), got, want)
			}
		}
	}
	if _, _, err := pc.Paths(cancelled(), qs[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("Paths under a cancelled context: err %v, want context.Canceled", err)
	}
	return served
}

func cancelled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}
