package vertsim

import (
	"context"
	"sort"

	"cliffguard/internal/designer"
	"cliffguard/internal/workload"
)

// Designer is the DBD-style nominal designer (the paper's ExistingDesigner
// for Vertica): it proposes candidate sorted projections derived from the
// input workload's query templates and greedily selects the best
// benefit-per-byte set within the storage budget.
//
// Like its commercial counterpart it is purely nominal — candidates come
// only from queries it was shown, so designs overfit the input workload and
// fall off a cliff when future queries reference drifted column sets. That
// is exactly the behaviour CliffGuard exists to repair.
type Designer struct {
	DB     *DB
	Budget int64
	// MaxSortCols caps the sort-key length of generated candidates.
	MaxSortCols int
	// MaxCandidates caps the candidate pool (highest-weight templates win).
	MaxCandidates int
}

// NewDesigner returns a nominal designer with paper-scale defaults.
func NewDesigner(db *DB, budget int64) *Designer {
	return &Designer{DB: db, Budget: budget, MaxSortCols: 4, MaxCandidates: 640}
}

// Name implements designer.Designer.
func (d *Designer) Name() string { return "VerticaDBD" }

// Design implements designer.Designer: compress the workload to templates,
// generate per-template and merged candidates, then greedy-select.
func (d *Designer) Design(ctx context.Context, w *workload.Workload) (*designer.Design, error) {
	cw := designer.CompressByTemplate(w)
	cands := d.candidates(cw)
	if d.DB.met != nil {
		d.DB.met.CandidatesGenerated.Add(uint64(len(cands)))
	}
	return designer.GreedySelect(ctx, d.DB, cw, cands, d.Budget)
}

// weightedQuery pairs a representative query with its template weight and
// its referenced-column set, built once per template.
type weightedQuery struct {
	q      *workload.Query
	weight float64
	cols   workload.ColSet
}

// Candidates generates the candidate projection pool for a workload: one or
// two tailored projections per template plus merged projections for strongly
// overlapping template pairs. The workload is compressed by template first.
func (d *Designer) Candidates(w *workload.Workload) []designer.Structure {
	return d.candidates(designer.CompressByTemplate(w))
}

// candidates builds the pool for a workload already compressed by template.
func (d *Designer) candidates(cw *workload.Workload) []designer.Structure {
	var wqs []weightedQuery
	for _, it := range cw.Items {
		if d.DB.check(it.Q) != nil {
			continue
		}
		wqs = append(wqs, weightedQuery{it.Q, it.Weight, it.Q.Columns()})
	}
	sort.SliceStable(wqs, func(i, j int) bool { return wqs[i].weight > wqs[j].weight })
	maxCand := d.MaxCandidates
	if maxCand <= 0 {
		maxCand = 640
	}

	var out []designer.Structure
	seen := make(map[string]bool)
	add := func(p *Projection, err error) {
		if err != nil || p == nil || seen[p.Key()] {
			return
		}
		seen[p.Key()] = true
		out = append(out, p)
	}

	// Per-template candidates take at most half the pool: the cluster-union
	// candidates below are the ones that serve many templates at once, and
	// they must never be crowded out on template-rich (e.g. perturbed)
	// workloads.
	perTemplateCap := maxCand / 2
	for _, wq := range wqs {
		if len(out) >= perTemplateCap {
			break
		}
		spec := wq.q.Spec
		cols := wq.cols.IDs()

		// Primary: sort by most-selective predicates, then group-by.
		add(NewProjection(d.DB.Schema, spec.Table, cols, d.sortKey(spec, false)))

		// Secondary for pure top-N queries: ORDER BY-leading sort order.
		if len(spec.OrderBy) > 0 && len(spec.GroupBy) == 0 {
			add(NewProjection(d.DB.Schema, spec.Table, cols, d.sortKey(spec, true)))
		}
	}

	// Merged candidates: agglomerate overlapping templates of the same table
	// into cluster-union projections. A cluster projection covers every
	// member (and, importantly, small variations of them), which is how the
	// designer stretches the budget across similar queries — and how a
	// workload that contains perturbed variants (CliffGuard's moved
	// workloads) turns into wider, drift-tolerant projections.
	type cluster struct {
		table    string
		cols     workload.ColSet
		members  int
		weight   float64
		predWt   map[int]float64 // pred column -> accumulated weight (eq boosted)
		groupWt  map[int]float64
		heaviest *workload.Spec
		second   *workload.Spec
	}
	var clusters []*cluster
	const maxClusterCols = 22
	for _, wq := range wqs {
		cols := wq.cols
		var best *cluster
		bestJ := 0.0
		for _, cl := range clusters {
			if cl.table != wq.q.Spec.Table {
				continue
			}
			union := cl.cols.Union(cols)
			if union.Len() > maxClusterCols {
				continue
			}
			// Containment rather than symmetric Jaccard: a template joins a
			// cluster when it is mostly inside the cluster's union already.
			// Perturbed variants of a template are ~90% inside its cluster, so
			// they keep joining as the union widens; organically distinct
			// templates (sharing only their hot columns, typically 50-75%
			// containment) stay out. This mirrors how commercial designers
			// merge only near-duplicate queries.
			j := float64(cl.cols.Intersect(cols).Len()) / float64(cols.Len())
			if j >= 0.8 && j > bestJ {
				best, bestJ = cl, j
			}
		}
		if best == nil {
			best = &cluster{
				table:   wq.q.Spec.Table,
				cols:    cols,
				predWt:  make(map[int]float64),
				groupWt: make(map[int]float64),
			}
			clusters = append(clusters, best)
		} else {
			best.cols = best.cols.Union(cols)
		}
		best.members++
		best.weight += wq.weight
		// wqs is sorted by weight, so the first two members to join are the
		// cluster's heaviest.
		if best.heaviest == nil {
			best.heaviest = wq.q.Spec
		} else if best.second == nil {
			best.second = wq.q.Spec
		}
		for _, p := range wq.q.Spec.Preds {
			boost := 1.0
			if p.Op == workload.Eq {
				boost = 2.0 // equalities extend the usable sort prefix
			}
			best.predWt[p.Col] += wq.weight * boost / (p.Sel + 1e-6)
		}
		for _, g := range wq.q.Spec.GroupBy {
			best.groupWt[g] += wq.weight
		}
	}
	for _, cl := range clusters {
		// Only genuine families — three or more near-duplicate templates —
		// earn speculative union projections.
		if cl.members < 3 || len(out) >= maxCand {
			continue
		}
		// Sort key: the cluster's most valuable predicate columns (weight x
		// selectivity), then shared group-by columns.
		key := topCols(cl.predWt, d.maxSortCols())
		for _, g := range topCols(cl.groupWt, d.maxSortCols()-len(key)) {
			key = append(key, g)
		}
		var sortCols []workload.OrderCol
		for _, c := range key {
			sortCols = append(sortCols, workload.OrderCol{Col: c})
		}
		add(NewProjection(d.DB.Schema, cl.table, cl.cols.IDs(), sortCols))
		// Variants sorted for the heaviest members, preserving their ideal
		// plans inside the wider projection — Vertica's classic trick of
		// keeping several projections that differ only in sort order.
		if cl.heaviest != nil && len(out) < maxCand {
			add(NewProjection(d.DB.Schema, cl.table, cl.cols.IDs(), d.sortKey(cl.heaviest, false)))
		}
		if cl.second != nil && len(out) < maxCand {
			add(NewProjection(d.DB.Schema, cl.table, cl.cols.IDs(), d.sortKey(cl.second, false)))
		}
		// One variant per popular predicate column as the leading sort key:
		// members (and near-variants) filtering on that column get a pruned
		// scan no matter which other predicates they carry.
		base := topCols(cl.predWt, d.maxSortCols())
		for _, lead := range topCols(cl.predWt, 8) {
			if len(out) >= maxCand {
				break
			}
			variant := []workload.OrderCol{{Col: lead}}
			for _, c := range base {
				if c != lead && len(variant) < d.maxSortCols() {
					variant = append(variant, workload.OrderCol{Col: c})
				}
			}
			add(NewProjection(d.DB.Schema, cl.table, cl.cols.IDs(), variant))
		}
	}
	return out
}

func (d *Designer) maxSortCols() int {
	if d.MaxSortCols > 0 {
		return d.MaxSortCols
	}
	return 4
}

// topCols returns up to k map keys by descending weight (deterministic
// tie-break on column ID).
func topCols(wt map[int]float64, k int) []int {
	if k <= 0 {
		return nil
	}
	cols := make([]int, 0, len(wt))
	for c := range wt {
		cols = append(cols, c)
	}
	sort.SliceStable(cols, func(a, b int) bool {
		if wt[cols[a]] != wt[cols[b]] {
			return wt[cols[a]] > wt[cols[b]]
		}
		return cols[a] < cols[b]
	})
	if len(cols) > k {
		cols = cols[:k]
	}
	return cols
}

// sortKey derives a candidate sort order from a query spec. With
// orderFirst, the query's ORDER BY keys lead; otherwise predicates lead,
// most selective first (equalities before the terminating range), followed
// by group-by columns.
func (d *Designer) sortKey(spec *workload.Spec, orderFirst bool) []workload.OrderCol {
	maxLen := d.MaxSortCols
	if maxLen <= 0 {
		maxLen = 4
	}
	var key []workload.OrderCol
	used := make(map[int]bool)
	push := func(oc workload.OrderCol) {
		if len(key) < maxLen && !used[oc.Col] {
			used[oc.Col] = true
			key = append(key, oc)
		}
	}
	if orderFirst {
		for _, oc := range spec.OrderBy {
			push(oc)
		}
	}
	// Equality predicates first (they extend the usable prefix), then the
	// single most selective range predicate.
	preds := spec.SortPredsBySelectivity()
	for _, p := range preds {
		if p.Op == workload.Eq {
			push(workload.OrderCol{Col: p.Col})
		}
	}
	for _, p := range preds {
		if p.Op != workload.Eq {
			push(workload.OrderCol{Col: p.Col})
			break
		}
	}
	for _, c := range spec.GroupBy {
		push(workload.OrderCol{Col: c})
	}
	if !orderFirst {
		for _, oc := range spec.OrderBy {
			push(oc)
		}
	}
	return key
}
